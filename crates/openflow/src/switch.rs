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
use std::collections::VecDeque;
use std::mem::take;

/// Timer token for the flow-install completion queue.
const TIMER_INSTALL: TimerToken = TimerToken(2);
/// Timer tokens for controller channels: BASE + index.
const TIMER_CHANNEL_BASE: u64 = 10;
/// Timer tokens for controller liveness deadlines: BASE + index.
const TIMER_DEADLINE_BASE: u64 = 1000;

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

/// One copy a forwarding decision sends, in the order the data plane
/// sends it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Egress {
    /// Out of a port, carrying these Ethernet addresses.
    Port {
        port: PortId,
        src: MacAddr,
        dst: MacAddr,
    },
    /// To the controllers as a PACKET_IN, carrying these addresses.
    Controller { src: MacAddr, dst: MacAddr },
}

/// How a forwarding decision ended, beside the copies it named.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Floods it made: one per `Flood` action, or the table miss of a
    /// destination the L2 table does not know.
    pub floods: u64,
    /// It ended in a drop: a `Drop` action, or a table miss whose known
    /// destination sits behind the ingress port.
    pub dropped: bool,
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

    /// Number of hardware operations still pending.
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    /// The forwarding decision for a data frame with `key`, arriving on
    /// port `key.in_port`, as the data plane takes it: the flow table's
    /// match and its action list, or on a miss the L2-learn rule (a
    /// known destination goes to its port unless that is the ingress;
    /// an unknown one floods the data ports but the ingress). `emit`
    /// gets each copy in the data plane's send order. Read-only and
    /// allocation-free: it learns nothing and counts nothing.
    pub fn decide(&self, key: &FlowKey, mut emit: impl FnMut(Egress)) -> Verdict {
        let actions = self.table.peek(key).map(|e| e.actions.as_slice());
        let in_port = Some(PortId(key.in_port as usize));
        let addrs = (key.eth_src, key.eth_dst);
        let (verdict, last) = decide(
            actions,
            &self.l2,
            &self.data_ports,
            in_port,
            addrs,
            |e, _| emit(e),
        );
        if let Some((port, src, dst, _)) = last {
            emit(Egress::Port { port, src, dst });
        }
        verdict
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
                // channel. No rewrite can touch a frame too short for
                // an Ethernet header: it leaves as it came.
                let addrs = EthernetRepr::parse(&frame)
                    .map_or((MacAddr::ZERO, MacAddr::ZERO), |(eth, _)| {
                        (eth.src, eth.dst)
                    });
                let mut frame = Frame::from(frame);
                let mut out = Emitter {
                    frame: &mut frame,
                    in_port: None,
                    stats: &mut self.stats,
                    controllers: &mut self.controllers,
                    xid_counter: &mut self.xid_counter,
                };
                let decided = decide(
                    Some(&actions),
                    &self.l2,
                    &self.data_ports,
                    None,
                    addrs,
                    |e, rewritten| out.send(ctx, e, rewritten),
                );
                finish(ctx, frame, &mut self.stats, decided);
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
        if key.eth_src.is_unicast() {
            self.learn(key.eth_src, in_port);
        }
        // The counting lookup matches as `decide`'s `peek` does.
        let actions = self
            .table
            .lookup(key, frame.len())
            .map(|e| e.actions.as_slice());
        let addrs = (key.eth_src, key.eth_dst);
        let mut frame = frame;
        let mut out = Emitter {
            frame: &mut frame,
            in_port: Some(in_port),
            stats: &mut self.stats,
            controllers: &mut self.controllers,
            xid_counter: &mut self.xid_counter,
        };
        let decided = decide(
            actions,
            &self.l2,
            &self.data_ports,
            Some(in_port),
            addrs,
            |e, rewritten| out.send(ctx, e, rewritten),
        );
        finish(ctx, frame, &mut self.stats, decided);
    }
}

/// The last port copy of a decision: its port, its addresses, and
/// whether a rewrite ran since the copy before it.
type LastCopy = Option<(PortId, MacAddr, MacAddr, bool)>;

/// The decision [`OfSwitch::decide`] and the data plane share. `actions`
/// run in turn (a rewrite applies to the copies after it, `Drop` ends
/// the list), or with no matched entry the L2-learn rule applies; a
/// flood goes to every data port but `in_port`. Every copy goes to
/// `emit` in send order, with whether a rewrite ran since the copy
/// before it (the data plane touches the header only then), except a
/// last port copy: that comes back with the verdict, and the data plane
/// sends the frame itself there, not a clone of it.
fn decide(
    actions: Option<&[Action]>,
    l2: &FxHashMap<MacAddr, PortId>,
    data_ports: &[PortId],
    in_port: Option<PortId>,
    (mut src, mut dst): (MacAddr, MacAddr),
    mut emit: impl FnMut(Egress, bool),
) -> (Verdict, LastCopy) {
    let mut verdict = Verdict::default();
    // The latest copy waits until a later one shows it is not the last.
    let mut held = None;
    let mut push = |egress, rewritten| {
        if let Some((egress, rewritten)) = held.replace((egress, rewritten)) {
            emit(egress, rewritten);
        }
    };
    let flood_ports = data_ports.iter().copied().filter(|&p| Some(p) != in_port);
    match actions {
        None => match if dst.is_unicast() { l2.get(&dst) } else { None } {
            Some(&port) if Some(port) == in_port => verdict.dropped = true,
            Some(&port) => push(Egress::Port { port, src, dst }, false),
            None => {
                verdict.floods += 1;
                flood_ports.for_each(|port| push(Egress::Port { port, src, dst }, false));
            }
        },
        Some(actions) => {
            let mut rewritten = false;
            for action in actions {
                match *action {
                    Action::SetDstMac(m) => (dst, rewritten) = (m, true),
                    Action::SetSrcMac(m) => (src, rewritten) = (m, true),
                    Action::Output(p) => {
                        let port = PortId(p as usize);
                        push(Egress::Port { port, src, dst }, take(&mut rewritten));
                    }
                    Action::Flood => {
                        verdict.floods += 1;
                        for port in flood_ports.clone() {
                            push(Egress::Port { port, src, dst }, take(&mut rewritten));
                        }
                    }
                    Action::ToController => {
                        push(Egress::Controller { src, dst }, take(&mut rewritten));
                    }
                    Action::Drop => {
                        verdict.dropped = true;
                        break;
                    }
                }
            }
        }
    }
    let last = match held {
        Some((Egress::Port { port, src, dst }, rewritten)) => Some((port, src, dst, rewritten)),
        Some((controller, rewritten)) => {
            emit(controller, rewritten);
            None
        }
        None => None,
    };
    (verdict, last)
}

/// Sends the copies of a frame that its decision names before the last
/// port copy, each carrying the addresses the decision gave it.
struct Emitter<'s> {
    frame: &'s mut Frame,
    in_port: Option<PortId>,
    stats: &'s mut SwitchStats,
    controllers: &'s mut [ChannelPort],
    xid_counter: &'s mut u32,
}

impl Emitter<'_> {
    fn send(&mut self, ctx: &mut Ctx, egress: Egress, rewritten: bool) {
        let (Egress::Port { src, dst, .. } | Egress::Controller { src, dst }) = egress;
        if rewritten {
            address(self.frame, (src, dst));
        }
        match egress {
            Egress::Port { port, .. } => {
                self.stats.frames_out += 1;
                ctx.send_frame(port, self.frame.clone());
            }
            Egress::Controller { .. } => {
                self.stats.packet_ins += 1;
                let msg = OfMessage::PacketIn {
                    in_port: self.in_port.map_or(u16::MAX, |p| p.0 as u16),
                    frame: self.frame.to_vec(),
                };
                send_to_controllers(self.controllers, self.xid_counter, ctx, &msg);
            }
        }
    }
}

/// Send a decision's last port copy, which is the frame itself, and
/// count the decision's floods and drop.
#[inline(always)]
fn finish(ctx: &mut Ctx, mut frame: Frame, stats: &mut SwitchStats, decided: (Verdict, LastCopy)) {
    let (verdict, last) = decided;
    if let Some((port, src, dst, rewritten)) = last {
        if rewritten {
            address(&mut frame, (src, dst));
        }
        stats.frames_out += 1;
        ctx.send_frame(port, frame);
    }
    stats.flooded += verdict.floods;
    stats.dropped += u64::from(verdict.dropped);
}

/// Set the frame's header to a copy's addresses: those a rewrite gave
/// it since the copy before.
#[inline(always)]
fn address(frame: &mut Frame, (src, dst): (MacAddr, MacAddr)) {
    let buf = frame.make_mut();
    let _ = EthernetRepr::rewrite_src(buf, src);
    let _ = EthernetRepr::rewrite_dst(buf, dst);
}

/// Asynchronous switch-to-controller notifications go to *every*
/// attached controller (PACKET_IN, PORT_STATUS).
fn send_to_controllers(
    controllers: &mut [ChannelPort],
    xid_counter: &mut u32,
    ctx: &mut Ctx,
    msg: &OfMessage,
) {
    *xid_counter += 1;
    let xid = *xid_counter;
    for chan in controllers {
        chan.send(msg.encode(xid));
        chan.flush(ctx);
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
        send_to_controllers(&mut self.controllers, &mut self.xid_counter, ctx, &msg);
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
            src_mac: MacAddr::from_octets([0, 0x5c, 0, 0, 0, 0xee]),
            dst_mac: MacAddr::from_octets([0, 0x5c, 0, 0, 0, 0xcc]),
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
                src_mac: MacAddr::from_octets([0, 0x5c, 0, 0, 0, 0xcc]),
                dst_mac: MacAddr::from_octets([0, 0x5c, 0, 0, 0, 0xee]),
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

    /// [`OfSwitch::decide`] against the data plane, in a live world: a
    /// switch with three hosts, a random flow table and the L2 table the
    /// probes teach it. For every probe, the copies that reach the hosts
    /// are the port copies the decision names, and the PACKET_INs are its
    /// controller copies.
    mod decision_matches_data_plane {
        use super::*;
        use sc_net::wire::UdpEndpoints;
        use sc_sim::{LinkParams, NodeId, World};

        const HOSTS: usize = 3;
        /// Unicast addresses the probes come from and go to, and rules
        /// match on and rewrite to.
        const MACS: [MacAddr; 4] = [
            MacAddr::from_octets([2, 0, 0, 0, 0, 1]),
            MacAddr::from_octets([2, 0, 0, 0, 0, 2]),
            MacAddr::from_octets([2, 0, 0, 0, 0, 3]),
            MacAddr::from_octets([2, 0, 0, 0, 0, 4]),
        ];
        const UDP_PORTS: [u16; 2] = [7, 9];

        /// Sends what the test queues when woken; records what arrives.
        #[derive(Default)]
        struct Host {
            outbox: Vec<Vec<u8>>,
            received: Vec<Vec<u8>>,
        }

        impl Node for Host {
            fn name(&self) -> &str {
                "host"
            }
            fn on_frame(&mut self, _ctx: &mut Ctx, _port: PortId, frame: Frame) {
                self.received.push(frame.to_vec());
            }
            fn on_timer(&mut self, ctx: &mut Ctx, _token: TimerToken) {
                for frame in self.outbox.drain(..) {
                    ctx.send_frame(PortId(0), frame);
                }
            }
        }

        /// A frame as it leaves: port, source MAC, destination MAC.
        type Sent = (PortId, MacAddr, MacAddr);

        /// The switch, noting after each data frame the decision it
        /// names for that frame in the state the data plane used.
        struct Checked {
            sw: OfSwitch,
            /// Per probe marker: the port copies, the controller copies,
            /// and the PACKET_INs the data plane counted.
            named: Vec<(u16, Vec<Sent>, u64, u64)>,
        }

        impl Node for Checked {
            fn name(&self) -> &str {
                self.sw.name()
            }
            fn on_frame(&mut self, ctx: &mut Ctx, port: PortId, frame: Frame) {
                let key = FlowKey::extract(port.0 as u16, &frame).expect("a probe");
                let marker = marker(&frame);
                let before = self.sw.stats.packet_ins;
                self.sw.on_frame(ctx, port, frame);
                let (mut ports, mut to_controller) = (Vec::new(), 0);
                self.sw.decide(&key, |egress| match egress {
                    Egress::Port { port, src, dst } => ports.push((port, src, dst)),
                    Egress::Controller { .. } => to_controller += 1,
                });
                ports.sort();
                let counted = self.sw.stats.packet_ins - before;
                self.named.push((marker, ports, to_controller, counted));
            }
            fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
                self.sw.on_timer(ctx, token);
            }
        }

        fn marker(frame: &[u8]) -> u16 {
            let d = peek_udp_frame(frame).unwrap().expect("a probe");
            u16::from_be_bytes([d.payload[0], d.payload[1]])
        }

        fn arb_mac() -> impl Strategy<Value = MacAddr> {
            (0..MACS.len()).prop_map(|i| MACS[i])
        }

        fn arb_udp_port() -> impl Strategy<Value = u16> {
            (0..UDP_PORTS.len()).prop_map(|i| UDP_PORTS[i])
        }

        fn arb_action() -> impl Strategy<Value = Action> {
            prop_oneof![
                (0..HOSTS as u16).prop_map(Action::Output),
                (0..HOSTS as u16).prop_map(Action::Output),
                arb_mac().prop_map(Action::SetDstMac),
                arb_mac().prop_map(Action::SetSrcMac),
                Just(Action::Flood),
                Just(Action::Drop),
                Just(Action::ToController),
            ]
        }

        fn arb_entry() -> impl Strategy<Value = FlowEntry> {
            let matcher = (
                proptest::option::of(0..HOSTS as u16),
                proptest::option::of(arb_mac()),
                proptest::option::of(arb_mac()),
                proptest::option::of(arb_udp_port()),
            )
                .prop_map(|(in_port, eth_src, eth_dst, udp_dst)| FlowMatch {
                    in_port,
                    eth_src,
                    eth_dst,
                    udp_dst,
                    ..FlowMatch::default()
                });
            (1u16..4, matcher, vec(arb_action(), 0..4)).prop_map(|(priority, matcher, actions)| {
                FlowEntry {
                    priority,
                    cookie: 0,
                    matcher,
                    actions,
                    stats: FlowStats::default(),
                }
            })
        }

        /// A probe: from host `.0`, source MAC `.1`, to MAC `.2` (one in
        /// five broadcast), UDP destination port `.3`.
        fn arb_probe() -> impl Strategy<Value = (usize, MacAddr, MacAddr, u16)> {
            let dst = (0..MACS.len() + 1)
                .prop_map(|i| MACS.get(i).copied().unwrap_or(MacAddr::BROADCAST));
            (0..HOSTS, arb_mac(), dst, arb_udp_port())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn every_probe_leaves_as_decided(
                entries in vec(arb_entry(), 0..6),
                probes in vec(arb_probe(), 1..30),
            ) {
                let mut world = World::new(1);
                let sw = world.add_node(Checked {
                    sw: OfSwitch::new(SwitchConfig::paper_defaults("sw")),
                    named: Vec::new(),
                });
                let lan = LinkParams::with_latency(SimDuration::from_micros(10));
                let hosts: Vec<NodeId> = (0..HOSTS).map(|_| world.add_node(Host::default())).collect();
                for &h in &hosts {
                    let (_, port, _) = world.connect(sw, h, lan);
                    world.node_mut::<Checked>(sw).sw.register_data_port(port);
                }
                for entry in entries {
                    world.node_mut::<Checked>(sw).sw.table.add(entry);
                }
                for (k, &(host, src, dst, udp_dst)) in probes.iter().enumerate() {
                    let ep = UdpEndpoints {
                        src_mac: src,
                        dst_mac: dst,
                        src_ip: Ipv4Addr::new(10, 0, 0, 1),
                        dst_ip: Ipv4Addr::new(10, 0, 0, 2),
                        src_port: 5000,
                        dst_port: udp_dst,
                    };
                    let frame = udp_frame(ep, 64, &(k as u16).to_be_bytes());
                    world.node_mut::<Host>(hosts[host]).outbox.push(frame);
                    let now = world.now();
                    world.wake_node(now, hosts[host], TimerToken(0));
                    world.run_for(SimDuration::from_micros(100));
                }
                let checked = world.node::<Checked>(sw);
                prop_assert_eq!(checked.named.len(), probes.len());
                for (probe, ports, to_controller, counted) in &checked.named {
                    let mut sent: Vec<Sent> = Vec::new();
                    for (port, &h) in hosts.iter().enumerate() {
                        for frame in &world.node::<Host>(h).received {
                            if marker(frame) == *probe {
                                let d = peek_udp_frame(frame).unwrap().unwrap();
                                sent.push((PortId(port), d.eth.src, d.eth.dst));
                            }
                        }
                    }
                    sent.sort();
                    prop_assert_eq!(&sent, ports, "probe {}: sent against decided", probe);
                    prop_assert_eq!(to_controller, counted, "probe {}: PACKET_INs", probe);
                }
            }
        }
    }
}
