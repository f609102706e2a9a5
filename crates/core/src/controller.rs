//! The supercharger controller as a simulation node.
//!
//! This is the reproduction of the paper's ExaBGP + FreeBFD + Floodlight
//! stack (§3), collapsed into one deterministic node:
//!
//! * **BGP interposition**: it terminates the peers' sessions (R2, R3,
//!   …) and runs one session toward the supercharged router, feeding
//!   every update through the [`Engine`] (Listing 1) and forwarding the
//!   rewritten announcements;
//! * **BFD**: one session per peer; a `Down` event triggers the
//!   data-plane convergence procedure (Listing 2) — the constant-size
//!   set of FLOW_MODs — after a configurable controller reaction delay,
//!   then queues the control-plane repair at router pace;
//! * **OpenFlow client**: drives the switch (HELLO/FEATURES handshake,
//!   ARP punt rule, per-group VMAC rules, barriers);
//! * **ARP responder**: answers PACKET_IN ARP requests for virtual
//!   next-hops with the owning group's VMAC via PACKET_OUT.

use crate::engine::{Engine, EngineAction, EngineConfig, FailoverPlan, PeerSpec, Walked};
use sc_bfd::{BfdConfig, BfdEvent, BfdSession};
use sc_bgp::msg::{BgpMessage, UpdateMsg};
use sc_bgp::session::{DownReason, Session, SessionConfig, SessionEvent};
use sc_bgp::PeerId;
#[allow(
    clippy::disallowed_types,
    reason = "pump_session still takes channel events; see ROADMAP item 14 (`Peering`, sans-io)"
)]
use sc_net::channel::ChannelEvent;
use sc_net::wire::udp::port as udp_port;
use sc_net::wire::{
    peek_udp_frame, udp_frame_with, ArpOp, ArpRepr, EtherType, EthernetRepr, UdpEndpoints,
};
use sc_net::{splitmix64, MacAddr, SimDuration, SimTime};
use sc_openflow::msg::{FlowModCommand, OfMessage};
use sc_openflow::{Action, FlowMatch};
use sc_sim::{ChannelPort, Ctx, Node, PortId, TimerToken, Wakeup};
use std::any::Any;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

const TIMER_SWITCH_CHAN: TimerToken = TimerToken(10);
const TIMER_ROUTER_CHAN: TimerToken = TimerToken(11);
const TIMER_ROUTER_SESSION: TimerToken = TimerToken(12);
const TIMER_REACTION: TimerToken = TimerToken(13);
const TIMER_RETIRE: TimerToken = TimerToken(14);
const TIMER_FLOWMOD_ACK: TimerToken = TimerToken(15);
const TIMER_ECHO: TimerToken = TimerToken(16);
const PEER_TIMER_BASE: u64 = 100;
const PEER_TIMER_STRIDE: u64 = 10;
const PEER_TIMER_CHANNEL: u64 = 0;
const PEER_TIMER_SESSION: u64 = 1;
const PEER_TIMER_BFD: u64 = 2;

fn peer_timer(idx: usize, kind: u64) -> TimerToken {
    TimerToken(PEER_TIMER_BASE + idx as u64 * PEER_TIMER_STRIDE + kind)
}

/// Priority of per-group VMAC rules.
const VMAC_RULE_PRIORITY: u16 = 100;
/// How long a retired group's rule stays installed. Must exceed the
/// router's worst-case FIB walk, or traffic still tagged with the old
/// VMAC would blackhole (see `groups::BackupGroup::retired`).
const RULE_GRACE: SimDuration = SimDuration::from_secs(600);
/// How long an issued flow-mod batch may stay unacked (no BARRIER_REPLY)
/// before its first retry; later retries back off exponentially from
/// here.
const ACK_TIMEOUT: SimDuration = SimDuration::from_millis(50);
/// Attempts before the controller gives a batch up and declares itself
/// degraded (the switch is not programmable; the routers' own BGP
/// fallback is the remaining convergence path).
const MAX_FLOWMOD_ATTEMPTS: u32 = 5;
/// Priority of the ARP punt rule.
const ARP_RULE_PRIORITY: u16 = 50;
/// Cookie marking all supercharger-owned rules.
const SC_COOKIE: u64 = 0x5c;

/// The session toward the supercharged router.
#[derive(Clone, Copy, Debug)]
pub struct RouterLink {
    pub router_ip: Ipv4Addr,
    pub router_mac: MacAddr,
    /// We are the passive side; the router connects to us.
    pub local_port: u16,
    pub remote_port: u16,
    pub hold_time: SimDuration,
}

/// One interposed peer session (plus optional BFD).
#[derive(Clone, Copy, Debug)]
pub struct PeerLink {
    pub spec: PeerSpec,
    pub local_port: u16,
    pub remote_port: u16,
    pub hold_time: SimDuration,
    pub bfd: Option<BfdConfig>,
}

/// The OpenFlow control channel to the switch.
#[derive(Clone, Copy, Debug)]
pub struct SwitchLink {
    pub switch_ip: Ipv4Addr,
    pub switch_mac: MacAddr,
    pub local_port: u16,
}

/// Full controller configuration.
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    pub name: String,
    pub asn: u16,
    pub router_id: Ipv4Addr,
    pub ip: Ipv4Addr,
    pub mac: MacAddr,
    pub engine: EngineConfig,
    pub router: RouterLink,
    pub peers: Vec<PeerLink>,
    pub switch: SwitchLink,
    /// Modeled controller compute/REST latency between the BFD event and
    /// the FLOW_MODs leaving the box (the paper's prototype measured a
    /// few ms on this path).
    pub reaction_delay: SimDuration,
    /// React to switch PORT_STATUS (carrier loss) in addition to BFD —
    /// an ablation beyond the paper: when the failed peer hangs directly
    /// off the supercharged switch, carrier detection beats BFD's
    /// detect-mult x interval by an order of magnitude.
    pub portstatus_failover: bool,
    /// Seed for the retry backoff jitter — the only randomness this node
    /// has: `splitmix64` of it, never ambient entropy.
    pub seed: u64,
    /// Send an OpenFlow ECHO_REQUEST to the switch at this cadence so
    /// the switch-side liveness deadline keeps hearing from us even when
    /// no flow-mods flow. `None` disables keepalives.
    pub echo_interval: Option<SimDuration>,
}

/// Timestamped controller events, for the experiment harness.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ControllerEvent {
    SwitchReady,
    RouterSessionUp,
    PeerSessionUp(PeerId),
    PeerDown(PeerId),
    FailoverIssued { peer: PeerId, rewrites: usize },
    RepairQueued { peer: PeerId, announcements: usize },
    ArpAnswered { vnh: Ipv4Addr },
    FlowBatchRetry { token: u64, attempt: u32 },
    FlowBatchGiveUp { token: u64 },
}

/// Robustness counters (acked flow programming).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ControllerStats {
    /// Unacked flow-mod batches re-sent after a backoff expiry.
    pub flowmod_retries: u64,
    /// Batches abandoned after `MAX_FLOWMOD_ATTEMPTS` — each one flips
    /// the controller into its degraded state until an ack returns.
    pub flowmod_giveups: u64,
}

/// One flow-mod batch awaiting its barrier ack.
struct UnackedBatch {
    token: u64,
    msgs: Vec<OfMessage>,
    attempt: u32,
    deadline: SimTime,
}

struct PeerSessionState {
    link: PeerLink,
    chan: ChannelPort,
    session: Session,
    bfd: Option<BfdSession>,
    session_wakeup: Wakeup,
    bfd_wakeup: Wakeup,
    failed_over: bool,
}

/// The controller node.
pub struct Controller {
    cfg: ControllerConfig,
    engine: Engine,
    switch_chan: ChannelPort,
    switch_ready: bool,
    router_chan: ChannelPort,
    router_session: Session,
    router_session_wakeup: Wakeup,
    peers: Vec<PeerSessionState>,
    xid: u32,
    /// FLOW_MODs waiting out the reaction delay.
    pending_flowmods: VecDeque<OfMessage>,
    reaction_armed: bool,
    /// Retired groups awaiting the rule-grace purge: (eligible_at, group).
    retire_queue: VecDeque<(SimTime, crate::groups::GroupId)>,
    retire_wakeup: Wakeup,
    /// Flow-mod batches fenced by a barrier whose reply is still out.
    /// Tokens are assigned in send order, so the deque stays sorted and
    /// a reply acks every batch with a token ≤ its own (cumulative).
    unacked: VecDeque<UnackedBatch>,
    barrier_token: u64,
    ack_wakeup: Wakeup,
    degraded: bool,
    pub stats: ControllerStats,
    pub events: Vec<(SimTime, ControllerEvent)>,
}

impl Controller {
    /// Build the controller. `port` is the node's single attachment (to
    /// the switch); all sessions run through it.
    pub fn new(cfg: ControllerConfig, port: PortId) -> Controller {
        let engine = Engine::new(cfg.engine.clone());
        let switch_chan = ChannelPort::connect(
            UdpEndpoints {
                src_mac: cfg.mac,
                dst_mac: cfg.switch.switch_mac,
                src_ip: cfg.ip,
                dst_ip: cfg.switch.switch_ip,
                src_port: cfg.switch.local_port,
                dst_port: udp_port::OPENFLOW,
            },
            port,
            TIMER_SWITCH_CHAN,
        );
        let router_chan = ChannelPort::listen(
            UdpEndpoints {
                src_mac: cfg.mac,
                dst_mac: cfg.router.router_mac,
                src_ip: cfg.ip,
                dst_ip: cfg.router.router_ip,
                src_port: cfg.router.local_port,
                dst_port: cfg.router.remote_port,
            },
            port,
            TIMER_ROUTER_CHAN,
        );
        let router_session = Session::new(SessionConfig {
            local_as: cfg.asn,
            router_id: cfg.router_id,
            hold_time: cfg.router.hold_time,
        });
        let peers = cfg
            .peers
            .iter()
            .enumerate()
            .map(|(i, link)| PeerSessionState {
                link: *link,
                chan: ChannelPort::connect(
                    UdpEndpoints {
                        src_mac: cfg.mac,
                        dst_mac: link.spec.mac,
                        src_ip: cfg.ip,
                        dst_ip: link.spec.id,
                        src_port: link.local_port,
                        dst_port: link.remote_port,
                    },
                    port,
                    peer_timer(i, PEER_TIMER_CHANNEL),
                ),
                session: Session::new(SessionConfig {
                    local_as: cfg.asn,
                    router_id: cfg.router_id,
                    hold_time: link.hold_time,
                }),
                bfd: link.bfd.map(BfdSession::new),
                session_wakeup: Wakeup::new(peer_timer(i, PEER_TIMER_SESSION)),
                bfd_wakeup: Wakeup::new(peer_timer(i, PEER_TIMER_BFD)),
                failed_over: false,
            })
            .collect();
        Controller {
            engine,
            switch_chan,
            switch_ready: false,
            router_chan,
            router_session,
            router_session_wakeup: Wakeup::new(TIMER_ROUTER_SESSION),
            peers,
            xid: 1,
            pending_flowmods: VecDeque::new(),
            reaction_armed: false,
            retire_queue: VecDeque::new(),
            retire_wakeup: Wakeup::new(TIMER_RETIRE),
            unacked: VecDeque::new(),
            barrier_token: 0,
            ack_wakeup: Wakeup::new(TIMER_FLOWMOD_ACK),
            degraded: false,
            stats: ControllerStats::default(),
            events: Vec::new(),
            cfg,
        }
    }

    /// Has the controller given up on programming the switch (unacked
    /// flow-mods exhausted their retries)? Cleared by the next ack.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Fold this controller's lifetime counters — the engine's RIB
    /// footprint, the router-facing and every peer-facing BGP session,
    /// per-peer BFD, and the flow-mod robustness stats — into a metrics
    /// registry. Call once, after a run: the counters are totals, not
    /// deltas.
    pub fn fold_metrics(&self, reg: &mut sc_net::metrics::Registry) {
        self.engine.rib().footprint().fold_metrics(reg);
        self.router_session.fold_metrics(reg);
        for p in &self.peers {
            p.session.fold_metrics(reg);
            if let Some(bfd) = &p.bfd {
                bfd.fold_metrics(reg);
            }
        }
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// BFD state and negotiated detection time toward a peer.
    pub fn bfd_snapshot(&self, peer: PeerId) -> Option<(sc_bfd::BfdState, SimDuration)> {
        let p = self.peers.iter().find(|p| p.link.spec.id == peer)?;
        let bfd = p.bfd.as_ref()?;
        Some((bfd.state(), bfd.detection_time()))
    }

    /// BFD packet counters toward a peer (diagnostics).
    pub fn bfd_counters(&self, peer: PeerId) -> Option<(u64, u64)> {
        let p = self.peers.iter().find(|p| p.link.spec.id == peer)?;
        let bfd = p.bfd.as_ref()?;
        Some((bfd.packets_sent, bfd.packets_received))
    }

    fn next_xid(&mut self) -> u32 {
        self.xid += 1;
        self.xid
    }

    fn of_send(&mut self, ctx: &mut Ctx, msg: OfMessage) {
        let xid = self.next_xid();
        self.switch_chan.send(msg.encode(xid));
        self.switch_chan.flush(ctx);
    }

    /// Send a batch of FLOW_MODs fenced by a barrier, and track it until
    /// the BARRIER_REPLY acks it. Unacked batches are re-sent on a
    /// bounded exponential backoff with seeded jitter; after
    /// `MAX_FLOWMOD_ATTEMPTS` the batch is abandoned and the controller
    /// declares itself degraded.
    fn send_flow_batch(&mut self, ctx: &mut Ctx, msgs: Vec<OfMessage>) {
        if msgs.is_empty() {
            return;
        }
        self.barrier_token += 1;
        let token = self.barrier_token;
        ctx.span_begin("program", "flowmod.batch", token, msgs.len() as u64);
        ctx.metrics().inc("ctl.flow_batches");
        ctx.metrics().add("ctl.flow_mods", msgs.len() as u64);
        for m in &msgs {
            self.of_send(ctx, m.clone());
        }
        self.of_send(ctx, OfMessage::BarrierRequest { token });
        let deadline = ctx.now() + self.backoff(token, 0);
        self.unacked.push_back(UnackedBatch {
            token,
            msgs,
            attempt: 0,
            deadline,
        });
        self.arm_ack_timer(ctx);
    }

    /// Deterministic backoff before retry `attempt + 1` of batch
    /// `token`: `ACK_TIMEOUT × 2^attempt` (exponent capped) plus a
    /// jitter in `[0, ACK_TIMEOUT/4)` that is a pure function of
    /// `(seed, token, attempt)` — replicas desynchronize their retry
    /// storms without any ambient randomness.
    fn backoff(&self, token: u64, attempt: u32) -> SimDuration {
        let step = ACK_TIMEOUT * (1u64 << attempt.min(4));
        let span = (ACK_TIMEOUT.as_micros() / 4).max(1);
        let jitter = splitmix64(
            &mut self
                .cfg
                .seed
                .wrapping_add(token.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add(attempt as u64),
        ) % span;
        step + SimDuration::from_micros(jitter)
    }

    fn arm_ack_timer(&mut self, ctx: &mut Ctx) {
        let next = self.unacked.iter().map(|b| b.deadline).min();
        self.ack_wakeup.arm(ctx, next);
    }

    fn on_barrier_reply(&mut self, ctx: &mut Ctx, token: u64) {
        while let Some(front) = self.unacked.front() {
            if front.token <= token {
                // Cumulative ack: one BARRIER_REPLY closes every batch
                // with a token at or below its own.
                ctx.span_end("program", "flowmod.batch", front.token, 0);
                self.unacked.pop_front();
            } else {
                break;
            }
        }
        // An ack proves the switch is programmable again: leave the
        // degraded state (the `flowmod_giveups` counter keeps the
        // history).
        if self.degraded {
            ctx.trace_instant("bgp", "ctl.degraded.exit", 0, 0, String::new);
        }
        self.degraded = false;
    }

    fn retry_unacked(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        self.ack_wakeup.fired(now);
        let mut resend: Vec<(u64, Vec<OfMessage>)> = Vec::new();
        let mut kept = VecDeque::with_capacity(self.unacked.len());
        while let Some(mut b) = self.unacked.pop_front() {
            if b.deadline > now {
                kept.push_back(b);
                continue;
            }
            b.attempt += 1;
            if b.attempt >= MAX_FLOWMOD_ATTEMPTS {
                self.stats.flowmod_giveups += 1;
                if !self.degraded {
                    ctx.trace_instant("bgp", "ctl.degraded.enter", b.token, 0, String::new);
                }
                self.degraded = true;
                ctx.span_end("program", "flowmod.batch", b.token, 0);
                ctx.trace_instant(
                    "program",
                    "flowmod.giveup",
                    b.token,
                    b.attempt as u64,
                    String::new,
                );
                ctx.metrics().inc("ctl.flowmod_giveups");
                self.events
                    .push((now, ControllerEvent::FlowBatchGiveUp { token: b.token }));
                continue;
            }
            self.stats.flowmod_retries += 1;
            ctx.trace_instant(
                "program",
                "flowmod.retry",
                b.token,
                b.attempt as u64,
                String::new,
            );
            ctx.metrics().inc("ctl.flowmod_retries");
            self.events.push((
                now,
                ControllerEvent::FlowBatchRetry {
                    token: b.token,
                    attempt: b.attempt,
                },
            ));
            b.deadline = now + self.backoff(b.token, b.attempt);
            resend.push((b.token, b.msgs.clone()));
            kept.push_back(b);
        }
        self.unacked = kept;
        for (token, msgs) in resend {
            for m in msgs {
                self.of_send(ctx, m);
            }
            self.of_send(ctx, OfMessage::BarrierRequest { token });
        }
        self.arm_ack_timer(ctx);
    }

    fn flow_mod(command: FlowModCommand, vmac: MacAddr, actions: Vec<Action>) -> OfMessage {
        OfMessage::FlowMod {
            command,
            priority: VMAC_RULE_PRIORITY,
            cookie: SC_COOKIE,
            matcher: FlowMatch::dst_mac(vmac),
            actions,
        }
    }

    /// Run one of the engine's streamed walks with the router session as
    /// its output: each UPDATE the walk packs is encoded into the
    /// router's channel at once, unflushed. With the session down
    /// nothing is packed: the engine's `announced` state is the source of
    /// truth and is replayed in full on (re-)establishment.
    fn walk_to_router(
        &mut self,
        walk: impl FnOnce(&mut Engine, Option<&mut dyn FnMut(UpdateMsg)>) -> Walked,
    ) -> Walked {
        let (session, chan) = (&mut self.router_session, &mut self.router_chan);
        let established = session.state() == sc_bgp::SessionState::Established;
        let mut send = |update| send_update(session, chan, update);
        let router: Option<&mut dyn FnMut(UpdateMsg)> =
            if established { Some(&mut send) } else { None };
        walk(&mut self.engine, router)
    }

    /// The switch side of a batch of engine actions (its announcements
    /// and withdrawals are skipped), then the router session's pump,
    /// whose flush sends what a streamed walk encoded.
    fn run_flow_actions(&mut self, ctx: &mut Ctx, actions: Vec<EngineAction>) {
        // Switch side: the whole run is one fenced batch.
        let mut batch = Vec::new();
        for action in actions {
            let msg = match action {
                EngineAction::FlowAdd {
                    vmac,
                    dst_mac,
                    port,
                } => Some(Self::flow_mod(
                    FlowModCommand::Add,
                    vmac,
                    vec![Action::SetDstMac(dst_mac), Action::Output(port)],
                )),
                EngineAction::FlowModify {
                    vmac,
                    dst_mac,
                    port,
                } => Some(Self::flow_mod(
                    FlowModCommand::Modify,
                    vmac,
                    vec![Action::SetDstMac(dst_mac), Action::Output(port)],
                )),
                EngineAction::FlowDelete { vmac } => {
                    Some(Self::flow_mod(FlowModCommand::Delete, vmac, Vec::new()))
                }
                EngineAction::FlowRetire { group, .. } => {
                    self.retire_queue.push_back((ctx.now() + RULE_GRACE, group));
                    self.arm_retire_timer(ctx);
                    None
                }
                EngineAction::Announce { .. } | EngineAction::Withdraw { .. } => None,
            };
            if let Some(m) = msg {
                batch.push(m);
            }
        }
        self.send_flow_batch(ctx, batch);
        self.pump_router(ctx);
    }

    fn arm_retire_timer(&mut self, ctx: &mut Ctx) {
        let next = self.retire_queue.front().map(|&(at, _)| at);
        self.retire_wakeup.arm(ctx, next);
    }

    fn drain_retired(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        self.retire_wakeup.fired(now);
        let mut batch = Vec::new();
        while let Some((at, group)) = self.retire_queue.front().copied() {
            if at > now {
                break;
            }
            self.retire_queue.pop_front();
            if let Some(vmac) = self.engine.purge_retired(group) {
                batch.push(Self::flow_mod(FlowModCommand::Delete, vmac, Vec::new()));
            }
        }
        self.send_flow_batch(ctx, batch);
        self.arm_retire_timer(ctx);
    }

    fn pump_router(&mut self, ctx: &mut Ctx) {
        drain(&mut self.router_session, &mut self.router_chan);
        self.router_chan.flush(ctx);
        self.router_session_wakeup
            .arm(ctx, self.router_session.next_wakeup());
    }

    fn pump_peer(&mut self, idx: usize, ctx: &mut Ctx) {
        let peer = &mut self.peers[idx];
        drain(&mut peer.session, &mut peer.chan);
        peer.chan.flush(ctx);
        peer.session_wakeup.arm(ctx, peer.session.next_wakeup());
    }

    fn pump_bfd(&mut self, idx: usize, ctx: &mut Ctx) {
        let now = ctx.now();
        let Some(bfd) = self.peers[idx].bfd.as_mut() else {
            return;
        };
        let (events, packets) = bfd.poll(now);
        let next = bfd.next_wakeup();
        let link = self.peers[idx].link;
        for pkt in packets {
            let frame = udp_frame_with(
                UdpEndpoints {
                    src_mac: self.cfg.mac,
                    dst_mac: link.spec.mac,
                    src_ip: self.cfg.ip,
                    dst_ip: link.spec.id,
                    src_port: udp_port::BFD_CONTROL,
                    dst_port: udp_port::BFD_CONTROL,
                },
                255,
                |buf| buf.extend_from_slice(&pkt.to_bytes()),
            );
            ctx.send_frame(self.switch_port(), frame);
        }
        self.peers[idx].bfd_wakeup.arm(ctx, next);
        for ev in events {
            self.on_bfd_event(idx, ev, ctx);
        }
    }

    fn switch_port(&self) -> PortId {
        self.switch_chan.port
    }

    fn on_bfd_event(&mut self, idx: usize, ev: BfdEvent, ctx: &mut Ctx) {
        let peer_id = self.peers[idx].link.spec.id;
        match ev {
            BfdEvent::Up => {
                self.peers[idx].failed_over = false;
                // Re-arm: groups failed over away from this peer steer
                // back the moment its forwarding plane is verified (RFC
                // 5882 §4.1); its routes return when the BGP session
                // re-establishes and replays the feed.
                let actions = self.engine.peer_up(peer_id);
                self.run_flow_actions(ctx, actions);
            }
            BfdEvent::Down(_diag) => {
                if self.peers[idx].failed_over {
                    return;
                }
                self.peers[idx].failed_over = true;
                self.events
                    .push((ctx.now(), ControllerEvent::PeerDown(peer_id)));
                ctx.metrics().inc("ctl.bfd_downs");
                ctx.trace_instant("detect", "bfd.down", idx as u64, 0, || {
                    format!("BFD: peer {peer_id} down")
                });
                // Fast path: Listing 2, after the modeled reaction delay.
                let plan = self.engine.failover_plan(peer_id);
                self.issue_failover(ctx, peer_id, &plan);
                // Tear the BGP session (it would hold-time out anyway)
                // and restart the transport so the session can
                // re-establish — and the peer re-announce — once the
                // peer returns.
                self.peers[idx].session.stop(DownReason::BfdDown);
                self.peers[idx].chan.reset();
                self.pump_peer(idx, ctx);
                self.queue_repair(ctx, peer_id);
            }
        }
    }

    /// Listing 2's slow path: purge `peer`'s routes and queue the
    /// control-plane repair toward the router. The engine's walk packs
    /// the re-announcements as it makes them, and each UPDATE is encoded
    /// into the router's channel at once (only while the session is
    /// Established); the flush that sends them runs where it would for
    /// any batch, after the switch side's.
    fn queue_repair(&mut self, ctx: &mut Ctx, peer: PeerId) {
        let walked = self.walk_to_router(|engine, router| engine.peer_down_repair(peer, router));
        ctx.trace_instant(
            "bgp",
            "repair.queued",
            0,
            walked.actions as u64,
            String::new,
        );
        self.events.push((
            ctx.now(),
            ControllerEvent::RepairQueued {
                peer,
                announcements: walked.actions,
            },
        ));
        self.run_flow_actions(ctx, walked.flow);
    }

    fn issue_failover(&mut self, ctx: &mut Ctx, peer: PeerId, plan: &FailoverPlan) {
        self.events.push((
            ctx.now(),
            ControllerEvent::FailoverIssued {
                peer,
                rewrites: plan.rewrites.len(),
            },
        ));
        ctx.metrics().inc("ctl.failovers");
        ctx.trace_instant(
            "bgp",
            "failover.plan",
            0,
            plan.rewrites.len() as u64,
            || format!("failover plan for {peer}: {} rewrites", plan.rewrites.len()),
        );
        for rw in &plan.rewrites {
            let msg = Self::flow_mod(
                FlowModCommand::Modify,
                rw.vmac,
                vec![
                    Action::SetDstMac(rw.new_dst_mac),
                    Action::Output(rw.out_port),
                ],
            );
            self.pending_flowmods.push_back(msg);
        }
        if !self.reaction_armed {
            self.reaction_armed = true;
            ctx.set_timer_after(self.cfg.reaction_delay, TIMER_REACTION);
        }
    }

    fn handle_of_message(&mut self, ctx: &mut Ctx, msg: OfMessage) {
        match msg {
            OfMessage::Hello if !self.switch_ready => {
                self.switch_ready = true;
                self.events.push((ctx.now(), ControllerEvent::SwitchReady));
                self.of_send(ctx, OfMessage::FeaturesRequest);
                // Punt broadcast ARP (requests) to us; keep flooding
                // them too so ordinary hosts still resolve each
                // other.
                let arp_rule = OfMessage::FlowMod {
                    command: FlowModCommand::Add,
                    priority: ARP_RULE_PRIORITY,
                    cookie: SC_COOKIE,
                    matcher: FlowMatch {
                        eth_type: Some(EtherType::Arp.to_u16()),
                        eth_dst: Some(MacAddr::BROADCAST),
                        ..FlowMatch::default()
                    },
                    actions: vec![Action::ToController, Action::Flood],
                };
                self.send_flow_batch(ctx, vec![arp_rule]);
            }
            OfMessage::PacketIn { in_port, frame } => {
                self.handle_packet_in(ctx, in_port, &frame);
            }
            OfMessage::EchoRequest(d) => {
                self.of_send(ctx, OfMessage::EchoReply(d));
            }
            OfMessage::BarrierReply { token } => {
                self.on_barrier_reply(ctx, token);
            }
            OfMessage::PortStatus { port, up } if self.cfg.portstatus_failover && !up => {
                // Carrier loss on a port a peer hangs off: run the
                // Listing 2 fast path immediately (the BFD event,
                // arriving up to detect-time later, dedups on
                // `failed_over`).
                if let Some(idx) = self
                    .peers
                    .iter()
                    .position(|p| p.link.spec.switch_port == port)
                {
                    self.on_bfd_event(idx, BfdEvent::Down(sc_bfd::BfdDiag::None), ctx);
                }
            }
            _ => {}
        }
    }

    /// The Floodlight ARP-resolver extension: answer requests for VNHs
    /// with the group's VMAC.
    fn handle_packet_in(&mut self, ctx: &mut Ctx, in_port: u16, frame: &[u8]) {
        let Ok((eth, payload)) = EthernetRepr::parse(frame) else {
            return;
        };
        if eth.ethertype != EtherType::Arp {
            return;
        }
        let Ok(arp) = ArpRepr::parse(payload) else {
            return;
        };
        if arp.op != ArpOp::Request || !self.engine.owns_vnh(arp.target_ip) {
            return;
        }
        let Some(vmac) = self.engine.arp_lookup(arp.target_ip) else {
            return; // unallocated VNH: nobody should be asking
        };
        self.events.push((
            ctx.now(),
            ControllerEvent::ArpAnswered { vnh: arp.target_ip },
        ));
        let reply = ArpRepr::reply_to(&arp, vmac);
        let reply_frame = EthernetRepr {
            dst: arp.sender_mac,
            src: vmac,
            ethertype: EtherType::Arp,
        }
        .to_frame(&reply.to_bytes());
        let out = OfMessage::PacketOut {
            actions: vec![Action::Output(in_port)],
            frame: reply_frame,
        };
        self.of_send(ctx, out);
    }

    fn handle_router_session_events(&mut self, events: Vec<SessionEvent>, ctx: &mut Ctx) {
        for ev in events {
            match ev {
                SessionEvent::Established(_) => {
                    self.events
                        .push((ctx.now(), ControllerEvent::RouterSessionUp));
                    // Full replay of the announced state (the router
                    // purged our routes when the session dropped): the
                    // controller-side Adj-RIB-Out, RFC 4271 §9.4, each
                    // UPDATE encoded into the channel as it is packed.
                    let (session, chan) = (&mut self.router_session, &mut self.router_chan);
                    self.engine
                        .replay(|update| send_update(session, chan, update));
                }
                SessionEvent::Down(_) => {
                    // Flush any final NOTIFICATION, then reset the
                    // transport so the router (the active side) can
                    // reconnect; the next establishment replays
                    // everything from engine state.
                    self.pump_router(ctx);
                    self.router_chan.reset();
                }
                SessionEvent::Update(_) => {
                    // The supercharged router does not originate routes
                    // in this lab; ignore.
                }
            }
        }
    }

    /// Dispatch a batch of peer-session events. UPDATEs are processed
    /// one message at a time on purpose: a batch goes to the router
    /// announcements first, withdrawals last
    /// ([`Engine::process_update_streamed`] holds an UPDATE's
    /// withdrawals to its end, and the streamed repair the same way), so
    /// a batch spanning messages would let an earlier message's
    /// withdrawal overtake a later message's announcement of the same
    /// prefix on the wire toward the router (a co-timed withdraw +
    /// re-announce would end withdrawn downstream). Per-message
    /// processing keeps the packed output order-faithful; a repair is
    /// one walk, which meets each prefix once.
    fn handle_peer_session_events(&mut self, idx: usize, events: Vec<SessionEvent>, ctx: &mut Ctx) {
        let peer_id = self.peers[idx].link.spec.id;
        for ev in events {
            match ev {
                SessionEvent::Established(_) => {
                    self.events
                        .push((ctx.now(), ControllerEvent::PeerSessionUp(peer_id)));
                    self.peers[idx].failed_over = false;
                    let actions = self.engine.peer_up(peer_id);
                    self.run_flow_actions(ctx, actions);
                }
                SessionEvent::Down(_) => {
                    // Without BFD this is the detection path (hold
                    // timer); with BFD it usually arrives after the
                    // failover already ran — failed_over dedups.
                    if !self.peers[idx].failed_over {
                        self.peers[idx].failed_over = true;
                        self.events
                            .push((ctx.now(), ControllerEvent::PeerDown(peer_id)));
                        let plan = self.engine.failover_plan(peer_id);
                        self.issue_failover(ctx, peer_id, &plan);
                        self.queue_repair(ctx, peer_id);
                    }
                    // Either way the transport restarts: flush any final
                    // NOTIFICATION, then reconnect so the peer can
                    // re-establish and re-announce when it returns.
                    self.pump_peer(idx, ctx);
                    self.peers[idx].chan.reset();
                }
                SessionEvent::Update(upd) => {
                    let walked = self.walk_to_router(|engine, router| {
                        engine.process_update_streamed(peer_id, &upd, router)
                    });
                    self.run_flow_actions(ctx, walked.flow);
                }
            }
        }
    }
}

impl Node for Controller {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        // Kick the OpenFlow handshake and all active transports.
        self.of_send(ctx, OfMessage::Hello);
        if let Some(iv) = self.cfg.echo_interval {
            ctx.set_timer_after(iv, TIMER_ECHO);
        }
        for idx in 0..self.peers.len() {
            self.peers[idx].chan.flush(ctx);
            if let Some(bfd) = self.peers[idx].bfd.as_mut() {
                bfd.start(ctx.now());
            }
            self.pump_bfd(idx, ctx);
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx, _port: PortId, frame: sc_net::Frame) {
        // NIC filter: the switch floods unknown-unicast frames (e.g. a
        // peer's BFD packets addressed to a *dead* controller replica
        // after its L2 entry was purged); without this filter those
        // flooded `your_discr = 0` Down packets would be mis-demuxed
        // into our own healthy sessions (RFC 5880 §6.8.6 demultiplexing
        // respects addressing).
        if let Ok(dst) = EthernetRepr::peek_dst(&frame) {
            if dst != self.cfg.mac && !dst.is_broadcast() {
                return;
            }
        }
        let Ok(Some(d)) = peek_udp_frame(&frame) else {
            return;
        };
        if d.ip.dst != self.cfg.ip {
            return;
        }
        let now = ctx.now();
        // 1. Switch control channel.
        if self.switch_chan.matches(&d) {
            // Handling a message needs all of `self`, so decode inside
            // the channel's borrow and act after it.
            let mut msgs = Vec::new();
            self.switch_chan.on_datagram(&d, now, |ev| {
                if let ChannelEvent::Delivered(bytes) = ev {
                    msgs.extend(OfMessage::decode(bytes).map(|(_xid, msg)| msg));
                }
            });
            self.switch_chan.flush(ctx);
            for msg in msgs {
                self.handle_of_message(ctx, msg);
            }
            return;
        }
        // 2. BFD.
        if d.udp.dst_port == udp_port::BFD_CONTROL {
            if let Some(idx) = self
                .peers
                .iter()
                .position(|p| p.link.spec.id == d.ip.src && p.bfd.is_some())
            {
                if let Ok(pkt) = sc_bfd::BfdPacket::parse(d.payload) {
                    let events = self.peers[idx].bfd.as_mut().unwrap().on_packet(&pkt, now);
                    for ev in events {
                        self.on_bfd_event(idx, ev, ctx);
                    }
                    self.pump_bfd(idx, ctx);
                }
            }
            return;
        }
        // 3. Router-facing BGP session.
        if self.router_chan.matches(&d) {
            let mut session_events = Vec::new();
            let session = &mut self.router_session;
            self.router_chan.on_datagram(&d, now, |ev| {
                pump_session(session, ev, now, &mut session_events)
            });
            self.handle_router_session_events(session_events, ctx);
            self.pump_router(ctx);
            return;
        }
        // 4. Peer BGP sessions.
        if let Some(idx) = self.peers.iter().position(|p| p.chan.matches(&d)) {
            let mut session_events = Vec::new();
            let peer = &mut self.peers[idx];
            let session = &mut peer.session;
            peer.chan.on_datagram(&d, now, |ev| {
                pump_session(session, ev, now, &mut session_events)
            });
            self.handle_peer_session_events(idx, session_events, ctx);
            self.pump_peer(idx, ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
        match token {
            TIMER_SWITCH_CHAN => self.switch_chan.on_timer(ctx),
            TIMER_ROUTER_CHAN => self.router_chan.on_timer(ctx),
            TIMER_ROUTER_SESSION => {
                self.router_session_wakeup.fired(ctx.now());
                let events = self.router_session.poll(ctx.now());
                self.handle_router_session_events(events, ctx);
                self.pump_router(ctx);
            }
            TIMER_REACTION => {
                self.reaction_armed = false;
                let batch: Vec<OfMessage> = self.pending_flowmods.drain(..).collect();
                self.send_flow_batch(ctx, batch);
            }
            TIMER_RETIRE => self.drain_retired(ctx),
            TIMER_FLOWMOD_ACK => self.retry_unacked(ctx),
            TIMER_ECHO => {
                if let Some(iv) = self.cfg.echo_interval {
                    // Liveness beacons to both fail-safe watchdogs: an
                    // OpenFlow echo for the switch agent's deadline and
                    // an out-of-schedule BGP KEEPALIVE for the router's.
                    self.of_send(ctx, OfMessage::EchoRequest(Vec::new()));
                    self.router_session.send_keepalive();
                    self.pump_router(ctx);
                    ctx.set_timer_after(iv, TIMER_ECHO);
                }
            }
            TimerToken(t) if t >= PEER_TIMER_BASE => {
                let idx = ((t - PEER_TIMER_BASE) / PEER_TIMER_STRIDE) as usize;
                if idx >= self.peers.len() {
                    return;
                }
                match (t - PEER_TIMER_BASE) % PEER_TIMER_STRIDE {
                    PEER_TIMER_CHANNEL => self.peers[idx].chan.on_timer(ctx),
                    PEER_TIMER_SESSION => {
                        self.peers[idx].session_wakeup.fired(ctx.now());
                        let events = self.peers[idx].session.poll(ctx.now());
                        self.handle_peer_session_events(idx, events, ctx);
                        self.pump_peer(idx, ctx);
                    }
                    PEER_TIMER_BFD => {
                        self.peers[idx].bfd_wakeup.fired(ctx.now());
                        self.pump_bfd(idx, ctx);
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Encode everything `session` has queued into `chan`, unflushed, each
/// message straight into a recycled channel buffer.
fn drain(session: &mut Session, chan: &mut ChannelPort) {
    while let Some(msg) = session.poll_transmit() {
        let mut buf = chan.take_buffer();
        msg.encode_into(&mut buf);
        chan.send(buf);
    }
}

/// Queue `update` on `session` and encode it into `chan` at once (the
/// streamed table walks): the channel's next flush sends it as it would
/// have sent the whole queue.
fn send_update(session: &mut Session, chan: &mut ChannelPort, update: UpdateMsg) {
    session.queue_update(update);
    drain(session, chan);
}

/// Drive a BGP session with one event of the channel that carries it.
#[allow(
    clippy::disallowed_types,
    reason = "the controller still drives channels directly; see ROADMAP item 14 (`Peering`, sans-io)"
)]
fn pump_session(
    session: &mut Session,
    ev: ChannelEvent<'_>,
    now: SimTime,
    out: &mut Vec<SessionEvent>,
) {
    match ev {
        ChannelEvent::Connected => session.start(now),
        ChannelEvent::Delivered(bytes) => {
            if let Ok(msg) = BgpMessage::decode(bytes) {
                out.extend(session.on_message(msg, now));
            }
        }
        ChannelEvent::PeerClosed => out.extend(session.stop(DownReason::AdminDown)),
    }
}
