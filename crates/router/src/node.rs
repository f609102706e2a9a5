//! The legacy router as a simulation node.
//!
//! One type models all three routers of the paper's lab (Fig. 4):
//!
//! * **R1** — the router being supercharged: BGP sessions (to its peers
//!   directly, or to the interposed controller), a flat FIB updated by
//!   the calibrated walker, dynamic ARP for (virtual) next-hops;
//! * **R2 / R3** — provider routers: originate a full feed, run BFD,
//!   forward delivered traffic to the measurement sink via a static
//!   route.
//!
//! The node wires together the substrates: BGP sessions ride reliable
//! channels over UDP, BFD rides raw UDP (port 3784), ARP rides Ethernet,
//! and the data plane does LPM → ARP → rewrite → forward with TTL and
//! checksum handling.

use crate::arp::{ArpClient, Resolution};
use crate::calibration::Calibration;
use crate::fib::{Fib, FibOp, FibWalker};
use crate::flowcache::{FlowCache, FlowCacheEntry};
use sc_bfd::{BfdConfig, BfdEvent, BfdSession};
use sc_bgp::msg::{BgpMessage, UpdateMsg};
use sc_bgp::session::{DownReason, Session, SessionConfig, SessionEvent};
use sc_bgp::{AdjRibOut, LocRib, PeerInfo, Route};
use sc_net::channel::ChannelEvent;
use sc_net::wire::udp::port as udp_port;
use sc_net::wire::{
    peek_udp_frame, udp_frame_with, ArpOp, ArpRepr, EtherType, EthernetRepr, Ipv4Repr, UdpDatagram,
    UdpEndpoints,
};
use sc_net::{Frame, Ipv4Prefix, MacAddr, SimDuration, SimTime};
use sc_sim::{ChannelPort, Ctx, Node, PortId, TimerToken, Wakeup};
use std::net::Ipv4Addr;

const TIMER_WALKER: TimerToken = TimerToken(0);
const TIMER_ARP: TimerToken = TimerToken(1);
const PEER_TIMER_BASE: u64 = 100;
const PEER_TIMER_STRIDE: u64 = 10;
const PEER_TIMER_CHANNEL: u64 = 0;
const PEER_TIMER_SESSION: u64 = 1;
const PEER_TIMER_BFD: u64 = 2;
const PEER_TIMER_DEADLINE: u64 = 3;

/// Encode everything `session` has queued into `chan`, unflushed, each
/// message straight into a recycled channel buffer — no allocation and
/// no copy per message.
fn drain(session: &mut Session, chan: &mut ChannelPort) {
    while let Some(msg) = session.poll_transmit() {
        let mut buf = chan.take_buffer();
        msg.encode_into(&mut buf);
        chan.send(buf);
    }
}

fn peer_timer(idx: usize, kind: u64) -> TimerToken {
    TimerToken(PEER_TIMER_BASE + idx as u64 * PEER_TIMER_STRIDE + kind)
}

/// A router interface: one attachment to the network.
#[derive(Clone, Copy, Debug)]
pub struct Interface {
    pub port: PortId,
    pub ip: Ipv4Addr,
    pub mac: MacAddr,
    /// The connected subnet (next-hops inside it are reachable here).
    pub subnet: Ipv4Prefix,
}

/// A static route (installed at start, bypassing BGP).
#[derive(Clone, Copy, Debug)]
pub struct StaticRoute {
    pub prefix: Ipv4Prefix,
    pub next_hop: Ipv4Addr,
}

/// Per-peer configuration.
#[derive(Clone, Debug)]
pub struct PeerConfig {
    pub peer_ip: Ipv4Addr,
    /// Static L2 mapping for the peer's address (infrastructure MACs are
    /// configured, not discovered, in the paper's lab).
    pub peer_mac: MacAddr,
    /// LOCAL_PREF assigned by import policy to routes from this peer
    /// (how the paper makes R1 prefer R2 over R3).
    pub local_pref: u32,
    /// True if we initiate the transport connection.
    pub transport_active: bool,
    pub local_port: u16,
    pub remote_port: u16,
    /// BGP hold time for this session.
    pub hold_time: SimDuration,
    /// Run BFD with this peer.
    pub bfd: Option<BfdConfig>,
    /// The routes to announce once the session establishes: the
    /// session's starting Adj-RIB-Out (the provider routers originate
    /// the RIS feed through this). A clone shares its table, so every
    /// session of a provider is handed the same one.
    pub originate: AdjRibOut,
    /// Which interface the peer is reached through.
    pub iface: usize,
    /// This session terminates at a supercharger controller replica.
    /// While *every* controller session is down (after having been up)
    /// the router is **degraded**: the legacy BGP path drives the FIB
    /// directly and nothing waits on FlowModify. The interval is
    /// tracked for the per-cycle `degraded_us` stat.
    pub controller: bool,
    /// Liveness watchdog: tear the session down if the peer sends
    /// nothing for this long while Established. Pairs with a peer that
    /// beacons sub-second keepalives (the supercharger's
    /// `echo_interval`) to detect controller death far inside the BGP
    /// hold floor. `None` (the default) leaves detection to the hold
    /// timer and BFD.
    pub deadline: Option<SimDuration>,
}

impl PeerConfig {
    /// A plain eBGP peer on interface 0 with default preferences.
    pub fn ebgp(peer_ip: Ipv4Addr, peer_mac: MacAddr, active: bool) -> PeerConfig {
        PeerConfig {
            peer_ip,
            peer_mac,
            local_pref: sc_bgp::decision::DEFAULT_LOCAL_PREF,
            transport_active: active,
            local_port: if active { 40000 } else { udp_port::BGP },
            remote_port: if active { udp_port::BGP } else { 40000 },
            hold_time: SimDuration::from_secs(90),
            bfd: None,
            originate: AdjRibOut::new(),
            iface: 0,
            controller: false,
            deadline: None,
        }
    }
}

/// Router-wide configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    pub name: String,
    pub asn: u16,
    pub router_id: Ipv4Addr,
    pub cal: Calibration,
}

/// Timestamped router events that tests and experiment drivers read.
/// The trace, the metrics and the degraded log record the rest.
#[derive(Clone, PartialEq, Debug)]
pub enum RouterEvent {
    /// A session left Established, with why: BFD-triggered dataplane
    /// failure ([`DownReason::BfdDown`]) is distinguishable from admin
    /// shutdown, hold-timer expiry, and received NOTIFICATIONs.
    PeerDown { peer: Ipv4Addr, reason: DownReason },
    /// The Adj-RIB-Out was (re-)announced over a freshly Established
    /// session; one event per establishment.
    FeedAnnounced { peer: Ipv4Addr, messages: usize },
}

/// The router's forwarding decision for a transit IPv4 packet
/// ([`LegacyRouter::decide`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Forwarding {
    /// No installed route covers the destination.
    NoRoute,
    /// The next hop lies in no interface's subnet.
    NoInterface,
    /// Out of interface number `iface` (in `add_interface` order), on
    /// `port` from `src_mac`, toward `next_hop`.
    Via {
        iface: usize,
        port: PortId,
        src_mac: MacAddr,
        next_hop: Ipv4Addr,
        /// The next hop's MAC and when that ARP binding expires; `None`
        /// while ARP has not resolved it.
        arp: Option<(MacAddr, SimTime)>,
    },
}

/// Data-plane and control-plane counters.
#[derive(Clone, Copy, Default, Debug)]
pub struct RouterStats {
    pub forwarded: u64,
    pub local_delivered: u64,
    pub dropped_no_route: u64,
    pub dropped_ttl: u64,
    pub dropped_malformed: u64,
    pub dropped_no_iface: u64,
    pub arp_replies_sent: u64,
    pub updates_processed: u64,
}

struct PeerState {
    cfg: PeerConfig,
    chan: ChannelPort,
    session: Session,
    bfd: Option<BfdSession>,
    session_wakeup: Wakeup,
    bfd_wakeup: Wakeup,
    /// Last instant any transport traffic arrived from this peer (feeds
    /// the liveness watchdog when `cfg.deadline` is set).
    last_heard: SimTime,
    /// The liveness watchdog: re-armed from its own expiry while
    /// traffic keeps pushing `last_heard` out.
    deadline_wakeup: Wakeup,
    /// What we advertise to this peer (RFC 4271 §3.2): `cfg.originate`,
    /// whose table stays shared with the provider's other sessions, plus
    /// what [`LegacyRouter::inject_updates`] wrote since, replayed in
    /// full on *every* session establishment — the RFC 4271 §9.4 restart
    /// behavior the old one-shot `feed_sent` latch broke.
    adj_out: AdjRibOut,
    /// Establishment counter (diagnostics; feed replays once per epoch).
    establishments: u32,
    /// RIB already purged for the current down event (avoid double
    /// withdrawal when BFD and the hold timer both fire).
    purged: bool,
}

/// The router node.
pub struct LegacyRouter {
    cfg: RouterConfig,
    interfaces: Vec<Interface>,
    static_routes: Vec<StaticRoute>,
    peers: Vec<PeerState>,
    rib: LocRib,
    fib: Fib,
    walker: FibWalker,
    /// The walker's tick, armed at the head op's completion instant. A
    /// burst that joins a walk leaves that instant alone, so re-arming
    /// after it pushes nothing.
    walker_wakeup: Wakeup,
    arp: ArpClient,
    /// ARP's retry tick, armed a second out while requests are pending.
    arp_wakeup: Wakeup,
    /// The dst-IP → (out-port, rewritten MAC) memo consulted before the
    /// LPM trie; see [`crate::flowcache`] for the invalidation rules.
    flow_cache: FlowCache,
    /// Reusable FIB-op scratch shared by all UPDATE processing.
    ops_buf: Vec<FibOp>,
    /// Reusable batch buffer for walker ticks.
    walker_batch_buf: Vec<FibOp>,
    /// Did any controller-marked session ever establish? Degradation is
    /// only entered after supercharging was actually in force — a world
    /// that never had a live controller is just legacy, not degraded.
    controller_was_up: bool,
    /// Open degraded interval, if the router is degraded right now.
    degraded_since: Option<SimTime>,
    /// Closed degraded intervals (enter, exit).
    degraded_log: Vec<(SimTime, SimTime)>,
    /// FIB shadow override in force: controller routes are still in the
    /// RIB (sessions up), but the FIB points at fallback next-hops.
    fib_shadow: bool,
    /// Prefixes the shadow override rewrote (what an exit must revert).
    shadow_overridden: Vec<Ipv4Prefix>,
    pub stats: RouterStats,
    pub events: Vec<(SimTime, RouterEvent)>,
}

impl LegacyRouter {
    pub fn new(cfg: RouterConfig) -> LegacyRouter {
        let cal = cfg.cal;
        let jitter_seed = u64::from(u32::from(cfg.router_id));
        LegacyRouter {
            cfg,
            interfaces: Vec::new(),
            static_routes: Vec::new(),
            peers: Vec::new(),
            rib: LocRib::new(),
            fib: Fib::new(),
            walker: FibWalker::new(cal, jitter_seed),
            walker_wakeup: Wakeup::new(TIMER_WALKER),
            arp: ArpClient::new(),
            arp_wakeup: Wakeup::new(TIMER_ARP),
            flow_cache: FlowCache::new(),
            ops_buf: Vec::new(),
            walker_batch_buf: Vec::new(),
            controller_was_up: false,
            degraded_since: None,
            degraded_log: Vec::new(),
            fib_shadow: false,
            shadow_overridden: Vec::new(),
            stats: RouterStats::default(),
            events: Vec::new(),
        }
    }

    /// Attach an interface (topology builder, after `World::connect`).
    pub fn add_interface(&mut self, iface: Interface) -> usize {
        self.interfaces.push(iface);
        self.interfaces.len() - 1
    }

    /// Install a static route (takes effect at start, no walker delay —
    /// statics are part of the boot configuration).
    pub fn add_static_route(&mut self, route: StaticRoute) {
        self.static_routes.push(route);
    }

    /// Configure a permanent ARP entry (infrastructure neighbors like
    /// the measurement sink).
    pub fn add_static_arp(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.arp.add_static(ip, mac);
        self.flow_cache.invalidate_next_hop(ip);
    }

    /// Configure a BGP peer. Must be called before the world starts.
    /// `cfg.originate` moves into the peer's Adj-RIB-Out, which is what
    /// is advertised from here on; its table is shared, not copied, so a
    /// provider's sessions hold one feed between them.
    pub fn add_peer(&mut self, mut cfg: PeerConfig) {
        let iface = self.interfaces[cfg.iface];
        let addr = UdpEndpoints {
            src_mac: iface.mac,
            dst_mac: cfg.peer_mac,
            src_ip: iface.ip,
            dst_ip: cfg.peer_ip,
            src_port: cfg.local_port,
            dst_port: cfg.remote_port,
        };
        let idx = self.peers.len();
        let timer = peer_timer(idx, PEER_TIMER_CHANNEL);
        let chan = if cfg.transport_active {
            ChannelPort::connect(addr, iface.port, timer)
        } else {
            ChannelPort::listen(addr, iface.port, timer)
        };
        let session = Session::new(SessionConfig {
            local_as: self.cfg.asn,
            router_id: self.cfg.router_id,
            hold_time: cfg.hold_time,
        });
        let bfd = cfg.bfd.map(BfdSession::new);
        // Infrastructure MACs are statically configured.
        self.arp.add_static(cfg.peer_ip, cfg.peer_mac);
        let adj_out = std::mem::take(&mut cfg.originate);
        self.peers.push(PeerState {
            cfg,
            chan,
            session,
            bfd,
            session_wakeup: Wakeup::new(peer_timer(idx, PEER_TIMER_SESSION)),
            bfd_wakeup: Wakeup::new(peer_timer(idx, PEER_TIMER_BFD)),
            last_heard: SimTime::ZERO,
            deadline_wakeup: Wakeup::new(peer_timer(idx, PEER_TIMER_DEADLINE)),
            adj_out,
            establishments: 0,
            purged: false,
        });
    }

    /// Queue additional UPDATEs on every Established session — runtime
    /// route churn, beyond the static `originate` feed sent at session
    /// establishment. Scenario drivers use this for withdraw/churn
    /// bursts mid-experiment.
    ///
    /// Returns the session wake tokens the caller must schedule via
    /// [`sc_sim::World::wake_node`] so the messages leave immediately
    /// instead of waiting for the next keepalive tick.
    pub fn inject_updates(&mut self, updates: &[UpdateMsg]) -> Vec<TimerToken> {
        let mut tokens = Vec::new();
        for p in &mut self.peers {
            // The Adj-RIB-Out is the advertised *intent* and tracks
            // every injection even while the session is down — a later
            // restart must replay the current state (with mid-outage
            // withdrawals applied), not the boot-time feed.
            for upd in updates {
                p.adj_out.apply(upd);
            }
            if p.session.state() != sc_bgp::SessionState::Established {
                continue;
            }
            for upd in updates {
                UpdateMsg::split_from(&upd.withdrawn, upd.attrs.as_ref(), &upd.nlri, &mut |part| {
                    p.session.queue_update(part)
                });
            }
            tokens.push(p.session_wakeup.token());
        }
        tokens
    }

    // ------------------------------------------------------ inspection

    /// Fold this router's lifetime counters — data plane, flow cache,
    /// every peer's BGP and BFD session — into a metrics registry. Call
    /// once, after a run: the counters are totals, not deltas.
    pub fn fold_metrics(&self, reg: &mut sc_net::metrics::Registry) {
        reg.add("router.forwarded", self.stats.forwarded);
        reg.add("router.local_delivered", self.stats.local_delivered);
        reg.add("router.dropped_no_route", self.stats.dropped_no_route);
        reg.add("router.updates_processed", self.stats.updates_processed);
        reg.add("flowcache.hits", self.flow_cache.hits);
        reg.add("flowcache.misses", self.flow_cache.misses);
        reg.add("flowcache.invalidated", self.flow_cache.invalidated);
        self.rib.footprint().fold_metrics(reg);
        for p in &self.peers {
            p.session.fold_metrics(reg);
            if let Some(bfd) = &p.bfd {
                bfd.fold_metrics(reg);
            }
        }
    }

    pub fn fib(&self) -> &Fib {
        &self.fib
    }

    /// Read-only view of the ARP cache (static entries, learned entries
    /// subject to expiry at `now`) — unlike the forwarding path's
    /// resolve, this never queues a request or parks a frame.
    pub fn arp(&self) -> &ArpClient {
        &self.arp
    }

    pub fn rib(&self) -> &LocRib {
        &self.rib
    }

    pub fn walker(&self) -> &FibWalker {
        &self.walker
    }

    /// True when every configured session is Established and the FIB
    /// walker is quiescent (the lab's "fully converged" predicate).
    pub fn is_quiescent(&self) -> bool {
        self.walker.is_quiescent()
    }

    /// BFD state and currently negotiated detection time for a peer
    /// (experiments wait for `Up` with a fast detection time before
    /// injecting failures, as a long-running lab would be).
    pub fn bfd_snapshot(
        &self,
        peer_ip: Ipv4Addr,
    ) -> Option<(sc_bfd::BfdState, sc_net::SimDuration)> {
        let p = self.peers.iter().find(|p| p.cfg.peer_ip == peer_ip)?;
        let bfd = p.bfd.as_ref()?;
        Some((bfd.state(), bfd.detection_time()))
    }

    /// BFD packet counters toward a peer (diagnostics).
    pub fn bfd_counters(&self, peer_ip: Ipv4Addr) -> Option<(u64, u64)> {
        let p = self.peers.iter().find(|p| p.cfg.peer_ip == peer_ip)?;
        let bfd = p.bfd.as_ref()?;
        Some((bfd.packets_sent, bfd.packets_received))
    }

    pub fn peer_session_state(&self, peer_ip: Ipv4Addr) -> Option<sc_bgp::SessionState> {
        self.peers
            .iter()
            .find(|p| p.cfg.peer_ip == peer_ip)
            .map(|p| p.session.state())
    }

    /// How many times the session toward `peer_ip` reached Established
    /// (1 after boot; +1 per RFC 4271 restart cycle).
    pub fn peer_establishments(&self, peer_ip: Ipv4Addr) -> Option<u32> {
        self.peers
            .iter()
            .find(|p| p.cfg.peer_ip == peer_ip)
            .map(|p| p.establishments)
    }

    /// Current Adj-RIB-Out size toward `peer_ip` (what a restart replays).
    pub fn adj_rib_out_len(&self, peer_ip: Ipv4Addr) -> Option<usize> {
        self.peers
            .iter()
            .find(|p| p.cfg.peer_ip == peer_ip)
            .map(|p| p.adj_out.len())
    }

    /// Every degraded interval so far, the currently open one capped at
    /// `now`. The runner intersects these with cycle windows for the
    /// per-cycle `degraded_us` column.
    pub fn degraded_intervals(&self, now: SimTime) -> Vec<(SimTime, SimTime)> {
        let mut v = self.degraded_log.clone();
        if let Some(s) = self.degraded_since {
            if now > s {
                v.push((s, now));
            }
        }
        v
    }

    /// No controller-marked session is Established (vacuously false with
    /// none configured).
    fn controller_sessions_all_down(&self) -> bool {
        let mut any = false;
        for p in &self.peers {
            if p.cfg.controller {
                any = true;
                if p.session.state() == sc_bgp::SessionState::Established {
                    return false;
                }
            }
        }
        any
    }

    /// Any controller-marked session currently Established.
    fn controller_established(&self) -> bool {
        self.peers
            .iter()
            .any(|p| p.cfg.controller && p.session.state() == sc_bgp::SessionState::Established)
    }

    /// Liveness evidence for the peer at `peer_ip` is stale: its BFD
    /// session (if any) is Down, or Up but silent past half the
    /// detection time. Peers without BFD are never stale — the hold
    /// timer is their only truth.
    fn peer_bfd_stale(peers: &[PeerState], peer_ip: Ipv4Addr, now: SimTime) -> bool {
        peers
            .iter()
            .find(|p| p.cfg.peer_ip == peer_ip)
            .and_then(|p| p.bfd.as_ref())
            .map(|bfd| bfd.is_stale(now))
            .unwrap_or(false)
    }

    /// The next-hop degraded-mode route selection would install for a
    /// prefix with these ranked `candidates`: the best one that is
    /// neither from a controller-marked peer nor from a peer whose BFD
    /// has gone quiet (see [`BfdSession::is_stale`]). Falls back to the
    /// unfiltered best when every candidate is suspect — a stale route
    /// beats no route.
    fn fallback_nh(peers: &[PeerState], candidates: &[Route], now: SimTime) -> Option<Ipv4Addr> {
        candidates
            .iter()
            .find(|r| {
                let from_controller = peers
                    .iter()
                    .any(|p| p.cfg.controller && p.cfg.peer_ip == r.peer);
                !from_controller && !Self::peer_bfd_stale(peers, r.peer, now)
            })
            .or_else(|| candidates.first())
            .map(|r| r.next_hop())
    }

    /// A non-controller peer just died while controller routes own the
    /// FIB: install fallback next-hops *over* them without touching the
    /// controller sessions. If the controller is alive it repairs the
    /// data plane itself within its detection time and its next sign of
    /// life reverts the override; if it is dead, the data plane is
    /// already converging at the same BFD-paced instant legacy would —
    /// the liveness deadline then only formalizes the degradation.
    fn shadow_enter(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let mut ops: Vec<FibOp> = Vec::new();
        let mut overridden = Vec::new();
        for (prefix, routes) in self.rib.iter() {
            let Some(best) = routes.first() else { continue };
            let best_is_controller = self
                .peers
                .iter()
                .any(|p| p.cfg.controller && p.cfg.peer_ip == best.peer);
            if !best_is_controller {
                continue;
            }
            let eff = Self::fallback_nh(&self.peers, routes, now);
            if let Some(nh) = eff {
                if nh != best.next_hop() {
                    ops.push(FibOp::Set {
                        prefix,
                        next_hop: nh,
                    });
                    overridden.push(prefix);
                }
            }
        }
        self.fib_shadow = true;
        self.shadow_overridden = overridden;
        ctx.metrics().inc("router.shadow_enters");
        ctx.trace_instant(
            "bgp",
            "shadow.enter",
            0,
            self.shadow_overridden.len() as u64,
            || {
                format!(
                    "fallback override: {} prefixes shadowed",
                    self.shadow_overridden.len()
                )
            },
        );
        if !ops.is_empty() {
            ctx.trace_instant("program", "fib.burst", 0, ops.len() as u64, String::new);
            // Same delay class as a session-loss purge: the override is
            // this router's answer to the same failure legacy answers
            // with a purge, so it must not be cheaper.
            self.walker.enqueue_burst(now, ops, true);
            self.arm_walker(ctx);
        }
    }

    /// Fresh controller liveness evidence: put the controller routes
    /// back in charge of every prefix the shadow override rewrote.
    fn shadow_exit(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        self.fib_shadow = false;
        let overridden = std::mem::take(&mut self.shadow_overridden);
        let ops: Vec<FibOp> = overridden
            .into_iter()
            .filter_map(|prefix| {
                self.rib.best(prefix).map(|r| FibOp::Set {
                    prefix,
                    next_hop: r.next_hop(),
                })
            })
            .collect();
        ctx.trace_instant("bgp", "shadow.exit", 0, ops.len() as u64, || {
            format!("fallback override lifted: {} prefixes", ops.len())
        });
        if !ops.is_empty() {
            ctx.trace_instant("program", "fib.burst", 0, ops.len() as u64, String::new);
            self.walker.enqueue_burst(now, ops, false);
            self.arm_walker(ctx);
        }
    }

    /// The NIC filter: does the interface on `port` take a frame
    /// addressed to `dst_mac` (its own MAC, or broadcast)?
    pub fn accepts(&self, port: PortId, dst_mac: MacAddr) -> bool {
        self.interfaces
            .iter()
            .find(|i| i.port == port)
            .is_some_and(|i| dst_mac == i.mac || dst_mac.is_broadcast())
    }

    /// The forwarding decision for a transit packet to `dst` at `now`,
    /// as the data plane takes it: the longest match in the *installed*
    /// FIB (what the walker has applied so far), its next hop (`dst`
    /// itself on a connected route), the first interface whose subnet
    /// holds that next hop, and the next hop's ARP binding. Read-only:
    /// it queues no ARP request and fills no cache. The flow cache is a
    /// memo of it.
    pub fn decide(&self, dst: Ipv4Addr, now: SimTime) -> Forwarding {
        let Some((_, entry)) = self.fib.lookup(dst) else {
            return Forwarding::NoRoute;
        };
        let next_hop = match entry.next_hop {
            Ipv4Addr::UNSPECIFIED => dst,
            nh => nh,
        };
        let Some(iface) = self.iface_for_nexthop(next_hop) else {
            return Forwarding::NoInterface;
        };
        let out = self.interfaces[iface];
        Forwarding::Via {
            iface,
            port: out.port,
            src_mac: out.mac,
            next_hop,
            arp: self.arp.lookup_with_expiry(next_hop, now),
        }
    }

    // --------------------------------------------------------- helpers

    fn iface_for_nexthop(&self, nh: Ipv4Addr) -> Option<usize> {
        self.interfaces.iter().position(|i| i.subnet.contains(nh))
    }

    fn is_local_ip(&self, ip: Ipv4Addr) -> bool {
        self.interfaces.iter().any(|i| i.ip == ip)
    }

    fn arm_walker(&mut self, ctx: &mut Ctx) {
        self.walker_wakeup.arm(ctx, self.walker.next_apply_at());
    }

    fn arm_arp_timer(&mut self, ctx: &mut Ctx) {
        let retry = (self.arp.pending_count() > 0).then(|| ctx.now() + SimDuration::from_secs(1));
        self.arp_wakeup.arm(ctx, retry);
    }

    fn send_arp_request(&mut self, ctx: &mut Ctx, iface_idx: usize, target: Ipv4Addr) {
        let iface = self.interfaces[iface_idx];
        let req = ArpRepr::request(iface.mac, iface.ip, target);
        let frame = EthernetRepr {
            dst: MacAddr::BROADCAST,
            src: iface.mac,
            ethertype: EtherType::Arp,
        }
        .to_frame(&req.to_bytes());
        ctx.send_frame(iface.port, frame);
    }

    /// Drain a peer's session output into its channel and re-arm timers.
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
        let (peer_ip, peer_mac, iface_idx) = {
            let c = &self.peers[idx].cfg;
            (c.peer_ip, c.peer_mac, c.iface)
        };
        let iface = self.interfaces[iface_idx];
        for pkt in packets {
            let frame = udp_frame_with(
                UdpEndpoints {
                    src_mac: iface.mac,
                    dst_mac: peer_mac,
                    src_ip: iface.ip,
                    dst_ip: peer_ip,
                    src_port: udp_port::BFD_CONTROL,
                    dst_port: udp_port::BFD_CONTROL,
                },
                255,
                |buf| buf.extend_from_slice(&pkt.to_bytes()),
            );
            ctx.send_frame(iface.port, frame);
        }
        self.peers[idx].bfd_wakeup.arm(ctx, next);
        for ev in events {
            self.on_bfd_event(idx, ev, ctx);
        }
    }

    /// Arm the liveness watchdog for a deadline-configured peer.
    fn arm_peer_deadline(&mut self, idx: usize, ctx: &mut Ctx) {
        let peer = &mut self.peers[idx];
        if let Some(d) = peer.cfg.deadline {
            peer.deadline_wakeup.arm(ctx, Some(peer.last_heard + d));
        }
    }

    /// The watchdog fired: if traffic arrived since arming, re-arm at
    /// the pushed-out due time; otherwise the peer has gone silent past
    /// its deadline — tear the session down now (same teardown as BFD)
    /// instead of waiting out the hold timer.
    fn check_peer_deadline(&mut self, idx: usize, ctx: &mut Ctx) {
        self.peers[idx].deadline_wakeup.fired(ctx.now());
        let Some(d) = self.peers[idx].cfg.deadline else {
            return;
        };
        if self.peers[idx].session.state() != sc_bgp::SessionState::Established {
            return; // re-armed on the next establishment
        }
        if ctx.now() < self.peers[idx].last_heard + d {
            self.arm_peer_deadline(idx, ctx);
            return;
        }
        let peer_ip = self.peers[idx].cfg.peer_ip;
        ctx.metrics().inc("router.liveness_expiries");
        ctx.trace_instant("detect", "liveness.expired", idx as u64, 0, || {
            format!("peer {peer_ip} silent past liveness deadline")
        });
        self.tear_down(idx, DownReason::LivenessExpired, ctx);
    }

    /// Declare peer `idx`'s session down for `reason` without waiting
    /// for the hold timer, and restart its transport too (BGP drops its
    /// TCP connection on session reset): the active side's SYN retries
    /// until the peer is reachable again, and the fresh establishment
    /// replays the Adj-RIB-Out (reconciliation).
    fn tear_down(&mut self, idx: usize, reason: DownReason, ctx: &mut Ctx) {
        self.peers[idx].session.stop(reason.clone());
        self.peer_down(idx, reason, ctx);
        self.peers[idx].chan.reset();
        self.pump_peer(idx, ctx);
    }

    fn on_bfd_event(&mut self, idx: usize, ev: BfdEvent, ctx: &mut Ctx) {
        match ev {
            BfdEvent::Up => {}
            BfdEvent::Down(_diag) => {
                // BFD says the peer's forwarding plane is gone: declare
                // the BGP session down without waiting for the hold
                // timer (that is BFD's whole purpose).
                let peer_ip = self.peers[idx].cfg.peer_ip;
                ctx.metrics().inc("router.bfd_downs");
                ctx.trace_instant("detect", "bfd.down", idx as u64, 0, || {
                    format!("peer {peer_ip} down (bfd)")
                });
                self.tear_down(idx, DownReason::BfdDown, ctx);
            }
        }
    }

    /// Dispatch a batch of session events. Consecutive UPDATEs — the
    /// co-timed runs a full-feed replay or churn burst delivers in one
    /// datagram batch — are handed to [`LegacyRouter::process_updates`]
    /// as one batch (shared scratch buffers, one pass over the RIB per
    /// message); interleaved non-UPDATE events flush the pending batch
    /// first so observable ordering is unchanged.
    fn handle_session_events(&mut self, idx: usize, events: Vec<SessionEvent>, ctx: &mut Ctx) {
        let mut updates: Vec<UpdateMsg> = Vec::new();
        for ev in events {
            if !matches!(ev, SessionEvent::Update(_)) && !updates.is_empty() {
                self.process_updates(idx, std::mem::take(&mut updates), ctx);
            }
            match ev {
                SessionEvent::Established(_open) => {
                    let peer_ip = self.peers[idx].cfg.peer_ip;
                    self.peers[idx].purged = false;
                    self.peers[idx].establishments += 1;
                    if self.peers[idx].cfg.controller {
                        self.controller_was_up = true;
                        if let Some(since) = self.degraded_since.take() {
                            // Reconciliation: the returning controller
                            // replays its announced state over this fresh
                            // session; normal UPDATE processing resyncs
                            // the RIB from there.
                            self.degraded_log.push((since, ctx.now()));
                            ctx.trace_instant("bgp", "degraded.exit", 0, 0, String::new);
                        }
                    }
                    self.peers[idx].last_heard = ctx.now();
                    self.arm_peer_deadline(idx, ctx);
                    ctx.trace_instant("bgp", "session.up", idx as u64, 0, || {
                        format!("session with {peer_ip} established")
                    });
                    // RFC 4271 §9.4: advertise the Adj-RIB-Out on every
                    // establishment — including re-establishments after
                    // a flap, which the old `feed_sent` latch skipped.
                    // Each UPDATE is encoded into the channel as the
                    // table's walk packs it; the next flush sends them.
                    let PeerState {
                        adj_out,
                        session,
                        chan,
                        ..
                    } = &mut self.peers[idx];
                    let mut n = 0;
                    adj_out.export_each(|part| {
                        n += 1;
                        session.queue_update(part);
                        drain(session, chan);
                    });
                    if n > 0 {
                        self.events.push((
                            ctx.now(),
                            RouterEvent::FeedAnnounced {
                                peer: peer_ip,
                                messages: n,
                            },
                        ));
                    }
                }
                SessionEvent::Down(reason) => {
                    self.peer_down(idx, reason, ctx);
                    // Best-effort delivery of any final NOTIFICATION
                    // over the dying transport, then drop the connection
                    // (BGP closes the TCP connection after a session
                    // reset); the next flush starts the reconnect.
                    self.pump_peer(idx, ctx);
                    self.peers[idx].chan.reset();
                }
                SessionEvent::Update(upd) => {
                    updates.push(upd);
                }
            }
        }
        if !updates.is_empty() {
            self.process_updates(idx, updates, ctx);
        }
    }

    /// Apply a batch of received UPDATEs to the RIB and queue FIB work.
    ///
    /// Timing semantics are identical to processing each message alone:
    /// every message still pays its own [`FibWalker::enqueue_burst`]
    /// update-processing delay and arms the walker at the same instants.
    /// What the batch saves is kernel work — one shared FIB-op scratch,
    /// one ranked-insert pass over the RIB per message via
    /// [`LocRib::apply_update_batch`] — not modeled hardware time.
    fn process_updates(&mut self, idx: usize, updates: Vec<UpdateMsg>, ctx: &mut Ctx) {
        let (peer_ip, local_pref, ebgp, peer_router_id) = {
            let p = &self.peers[idx];
            let open = p.session.peer_open();
            (
                p.cfg.peer_ip,
                p.cfg.local_pref,
                open.map(|o| o.my_as != self.cfg.asn).unwrap_or(true),
                open.map(|o| o.router_id).unwrap_or(p.cfg.peer_ip),
            )
        };
        let from = PeerInfo {
            peer: peer_ip,
            router_id: peer_router_id,
            ebgp,
            igp_cost: 0,
        };
        ctx.trace_instant(
            "bgp",
            "rib.apply",
            idx as u64,
            updates.len() as u64,
            String::new,
        );
        let mut ops = std::mem::take(&mut self.ops_buf);
        for upd in &updates {
            self.stats.updates_processed += 1;
            ops.clear();
            for prefix in &upd.withdrawn {
                if let Some(change) = self.rib.withdraw(*prefix, peer_ip) {
                    if change.best_changed() {
                        ops.push(match change.best() {
                            Some(r) => FibOp::Set {
                                prefix: *prefix,
                                next_hop: r.next_hop(),
                            },
                            None => FibOp::Remove { prefix: *prefix },
                        });
                    }
                }
            }
            // Glean only next-hops installed by *announcements* below
            // (withdraw-promoted backups were gleaned when they were
            // first announced) — `announced_from` marks the boundary.
            let announced_from = ops.len();
            if let Some(attrs) = &upd.attrs {
                let local_pref = attrs.local_pref.unwrap_or(local_pref);
                self.rib
                    .apply_update_batch(attrs, &upd.nlri, from, local_pref, |change| {
                        if change.best_changed() {
                            let best = change.best().expect("an update leaves a candidate");
                            ops.push(FibOp::Set {
                                prefix: change.prefix,
                                next_hop: best.next_hop(),
                            });
                        }
                    });
                // Glean: resolve each newly installed (possibly virtual)
                // next-hop proactively, like the paper's router does on
                // route reception.
                for op in &ops[announced_from..] {
                    let FibOp::Set { next_hop: nh, .. } = *op else {
                        continue;
                    };
                    if self.arp.lookup(nh, ctx.now()).is_none() {
                        if let Some(iface_idx) = self.iface_for_nexthop(nh) {
                            if self.arp.prefetch(nh, ctx.now()) {
                                self.send_arp_request(ctx, iface_idx, nh);
                            }
                            self.arm_arp_timer(ctx);
                        }
                    }
                }
            }
            if !ops.is_empty() {
                ctx.trace_instant("program", "fib.burst", 0, ops.len() as u64, String::new);
                ctx.metrics().add("fib.burst_ops", ops.len() as u64);
                self.walker.enqueue_burst(ctx.now(), ops.drain(..), false);
                self.arm_walker(ctx);
            }
        }
        self.ops_buf = ops;
    }

    /// A peer is gone (BFD, hold timer, or notification): purge its
    /// routes and queue the (potentially enormous) FIB walk.
    fn peer_down(&mut self, idx: usize, reason: DownReason, ctx: &mut Ctx) {
        if self.peers[idx].purged {
            return;
        }
        self.peers[idx].purged = true;
        let peer_ip = self.peers[idx].cfg.peer_ip;
        self.events.push((
            ctx.now(),
            RouterEvent::PeerDown {
                peer: peer_ip,
                reason,
            },
        ));
        if self.peers[idx].cfg.controller
            && self.controller_was_up
            && self.degraded_since.is_none()
            && self.controller_sessions_all_down()
        {
            self.degraded_since = Some(ctx.now());
            ctx.metrics().inc("router.degraded_enters");
            ctx.trace_instant("bgp", "degraded.enter", 0, 0, String::new);
            if self.fib_shadow {
                // Degradation formalizes the override: the purge below
                // recomputes every affected prefix, so there is nothing
                // to revert — just retire the shadow bookkeeping.
                self.fib_shadow = false;
                self.shadow_overridden.clear();
            }
        }
        // A degraded recompute quarantines BFD-quiet next-hops: a
        // fallback peer that has been silent past half its detection
        // time is very likely dead even though its timer hasn't expired
        // — churning the FIB toward it first would pay a second full
        // churn when the timer fires moments later.
        let quarantine = self.peers[idx].cfg.controller && self.degraded_since.is_some();
        let now = ctx.now();
        let peers = &self.peers;
        let mut affected = 0usize;
        let mut ops: Vec<FibOp> = Vec::new();
        self.rib.withdraw_peer(peer_ip, |c| {
            affected += 1;
            if !c.best_changed() {
                return;
            }
            ops.push(match c.best() {
                Some(r) => {
                    let nh = if quarantine && Self::peer_bfd_stale(peers, r.peer, now) {
                        Self::fallback_nh(peers, c.ranked, now).unwrap_or_else(|| r.next_hop())
                    } else {
                        r.next_hop()
                    };
                    FibOp::Set {
                        prefix: c.prefix,
                        next_hop: nh,
                    }
                }
                None => FibOp::Remove { prefix: c.prefix },
            });
        });
        ctx.trace_instant(
            "detect",
            "session.down",
            idx as u64,
            affected as u64,
            || format!("peer {peer_ip} down; {affected} prefixes affected"),
        );
        if !ops.is_empty() {
            ctx.trace_instant("program", "fib.burst", 0, ops.len() as u64, String::new);
            ctx.metrics().add("fib.burst_ops", ops.len() as u64);
            self.walker.enqueue_burst(ctx.now(), ops, true);
            self.arm_walker(ctx);
        }
        if !self.peers[idx].cfg.controller
            && !self.fib_shadow
            && self.degraded_since.is_none()
            && self.controller_was_up
            && self.controller_established()
        {
            // A data peer died while controller routes own the FIB: the
            // flow rules behind their virtual next-hops may now steer
            // into the failed path, and only a live controller can know.
            // Shadow the FIB onto fallback paths at BFD pace; the
            // controller's next sign of life lifts the override.
            self.shadow_enter(ctx);
        }
    }

    // ------------------------------------------------------ data plane

    fn handle_arp(&mut self, ctx: &mut Ctx, port: PortId, payload: &[u8]) {
        let Ok(arp) = ArpRepr::parse(payload) else {
            self.stats.dropped_malformed += 1;
            return;
        };
        let iface_idx = self.interfaces.iter().position(|i| i.port == port);
        let Some(iface_idx) = iface_idx else { return };
        let iface = self.interfaces[iface_idx];
        match arp.op {
            ArpOp::Request => {
                // Learn the sender opportunistically, reply if it asks
                // for one of our addresses.
                let released = self.arp.learn(arp.sender_ip, arp.sender_mac, ctx.now());
                // The L2 mapping (possibly) changed: memoized rewrites
                // through this next-hop are stale.
                self.flow_cache.invalidate_next_hop(arp.sender_ip);
                self.release_frames(ctx, released, arp.sender_ip);
                if arp.target_ip == iface.ip {
                    self.stats.arp_replies_sent += 1;
                    let reply = ArpRepr::reply_to(&arp, iface.mac);
                    let frame = EthernetRepr {
                        dst: arp.sender_mac,
                        src: iface.mac,
                        ethertype: EtherType::Arp,
                    }
                    .to_frame(&reply.to_bytes());
                    ctx.send_frame(iface.port, frame);
                }
            }
            ArpOp::Reply => {
                let released = self.arp.learn(arp.sender_ip, arp.sender_mac, ctx.now());
                self.flow_cache.invalidate_next_hop(arp.sender_ip);
                self.release_frames(ctx, released, arp.sender_ip);
            }
        }
    }

    fn release_frames(&mut self, ctx: &mut Ctx, frames: Vec<Frame>, nh: Ipv4Addr) {
        if frames.is_empty() {
            return;
        }
        let Some(mac) = self.arp.lookup(nh, ctx.now()) else {
            return;
        };
        let Some(iface_idx) = self.iface_for_nexthop(nh) else {
            return;
        };
        let port = self.interfaces[iface_idx].port;
        for mut frame in frames {
            if EthernetRepr::rewrite_dst(frame.make_mut(), mac).is_ok() {
                self.stats.forwarded += 1;
                ctx.send_frame(port, frame);
            }
        }
    }

    /// Forward a non-local IPv4 frame. `ip` is the already-validated
    /// header [`LegacyRouter::on_frame`] parsed (checksum checked once
    /// per packet, not once per lookup).
    fn forward_ipv4(&mut self, ctx: &mut Ctx, mut frame: Frame, ip: Ipv4Repr) {
        if ip.ttl <= 1 {
            self.stats.dropped_ttl += 1;
            return;
        }
        let now = ctx.now();
        let ip_off = sc_net::wire::ethernet::HEADER_LEN;
        // Flow-cache hit: the memoized decision, applying exactly the
        // transform the slow path below would (L2 src rewrite, TTL
        // decrement + checksum fixup, L2 dst rewrite) — only the LPM
        // walk, interface scan and ARP lookup are skipped, so the
        // emitted bytes are identical either way.
        if let Some(e) = self.flow_cache.lookup(ip.dst, now) {
            let iface = self.interfaces[e.iface];
            let buf = frame.make_mut();
            let _ = EthernetRepr::rewrite_src(buf, iface.mac);
            if Ipv4Repr::decrement_ttl(&mut buf[ip_off..]).is_err() {
                self.stats.dropped_ttl += 1;
                return;
            }
            let _ = EthernetRepr::rewrite_dst(buf, e.dst_mac);
            self.stats.forwarded += 1;
            ctx.send_frame(iface.port, frame);
            return;
        }
        let decision = self.decide(ip.dst, now);
        let Forwarding::Via {
            iface,
            port,
            src_mac,
            next_hop: nh,
            arp,
        } = decision
        else {
            match decision {
                Forwarding::NoRoute => self.stats.dropped_no_route += 1,
                _ => self.stats.dropped_no_iface += 1,
            }
            return;
        };
        // Rewrite L2 source and decrement TTL in place.
        {
            let buf = frame.make_mut();
            let _ = EthernetRepr::rewrite_src(buf, src_mac);
            if Ipv4Repr::decrement_ttl(&mut buf[ip_off..]).is_err() {
                self.stats.dropped_ttl += 1;
                return;
            }
        }
        // Fast path: resolved next-hop (static or cached).
        if let Some((mac, expires)) = arp {
            let _ = EthernetRepr::rewrite_dst(frame.make_mut(), mac);
            self.stats.forwarded += 1;
            // Memoize for the flow's next packet; `expires` caps the memo
            // at the backing ARP entry's lifetime.
            self.flow_cache.insert(
                ip.dst,
                FlowCacheEntry {
                    next_hop: nh,
                    iface,
                    dst_mac: mac,
                    expires,
                },
            );
            ctx.send_frame(port, frame);
            return;
        }
        // Slow path: park the frame until ARP resolves.
        match self.arp.resolve(nh, frame, now) {
            Resolution::Ready(_) => unreachable!("lookup above missed"),
            Resolution::QueuedSendRequest(target) => {
                self.send_arp_request(ctx, iface, target);
                self.arm_arp_timer(ctx);
            }
            Resolution::Queued => {
                self.arm_arp_timer(ctx);
            }
            Resolution::Dropped => {}
        }
    }

    fn deliver_local(&mut self, ctx: &mut Ctx, d: &UdpDatagram) {
        self.stats.local_delivered += 1;
        let now = ctx.now();
        // BFD control (RFC 5881 single-hop): demux by source address.
        if d.udp.dst_port == udp_port::BFD_CONTROL {
            if let Some(idx) = self
                .peers
                .iter()
                .position(|p| p.cfg.peer_ip == d.ip.src && p.bfd.is_some())
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
        // BGP transport: find the matching channel.
        if let Some(idx) = self.peers.iter().position(|p| p.chan.matches(d)) {
            self.peers[idx].last_heard = now;
            if self.fib_shadow
                && self.peers[idx].cfg.controller
                && self.peers[idx].session.state() == sc_bgp::SessionState::Established
            {
                // Any transport traffic from an Established controller
                // session is proof of life: lift the fallback override.
                self.shadow_exit(ctx);
            }
            let mut session_events = Vec::new();
            let PeerState { chan, session, .. } = &mut self.peers[idx];
            let stats = &mut self.stats;
            chan.on_datagram(d, now, |ev| match ev {
                ChannelEvent::Connected => session.start(now),
                ChannelEvent::Delivered(bytes) => match BgpMessage::decode(bytes) {
                    Ok(msg) => session_events.extend(session.on_message(msg, now)),
                    Err(_) => stats.dropped_malformed += 1,
                },
                ChannelEvent::PeerClosed => {
                    session_events.extend(session.stop(DownReason::AdminDown));
                }
            });
            self.handle_session_events(idx, session_events, ctx);
            self.pump_peer(idx, ctx);
        }
    }
}

impl Node for LegacyRouter {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        // Install static routes instantly (boot configuration) along
        // with connected subnets.
        for iface in self.interfaces.clone() {
            self.fib.insert(
                iface.subnet,
                crate::fib::FibEntry {
                    next_hop: Ipv4Addr::UNSPECIFIED,
                },
            );
        }
        for r in self.static_routes.clone() {
            self.fib.insert(
                r.prefix,
                crate::fib::FibEntry {
                    next_hop: r.next_hop,
                },
            );
        }
        // Kick off transports (active sides emit their SYN) and BFD.
        for idx in 0..self.peers.len() {
            if self.peers[idx].cfg.transport_active {
                self.peers[idx].chan.flush(ctx);
            }
            if let Some(bfd) = self.peers[idx].bfd.as_mut() {
                bfd.start(ctx.now());
            }
            self.pump_bfd(idx, ctx);
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx, port: PortId, frame: Frame) {
        let Ok((eth, payload)) = EthernetRepr::parse(&frame) else {
            self.stats.dropped_malformed += 1;
            return;
        };
        if !self.accepts(port, eth.dst) {
            return;
        }
        match eth.ethertype {
            EtherType::Arp => self.handle_arp(ctx, port, payload),
            EtherType::Ipv4 => {
                // Local delivery or forwarding? One parse (with header
                // checksum validation) serves both answers.
                let Ok((ip, _)) = Ipv4Repr::parse(payload) else {
                    self.stats.dropped_malformed += 1;
                    return;
                };
                if self.is_local_ip(ip.dst) {
                    match peek_udp_frame(&frame) {
                        Ok(Some(d)) => self.deliver_local(ctx, &d),
                        _ => self.stats.dropped_malformed += 1,
                    }
                } else {
                    self.forward_ipv4(ctx, frame, ip);
                }
            }
            EtherType::Other(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
        match token {
            TIMER_WALKER => {
                if !self.walker_wakeup.fired(ctx.now()) {
                    // Superseded: the live tick is still pending, and
                    // nothing is due at this instant.
                    return;
                }
                // Every op due before the horizon, each at its own
                // instant: no other event runs and no driver looks
                // before the horizon, so one tick does what one tick per
                // op did.
                let now = ctx.now();
                let mut applied = std::mem::take(&mut self.walker_batch_buf);
                self.walker
                    .apply_until(&mut self.fib, now, ctx.horizon(), &mut applied);
                let invalidated_before = self.flow_cache.invalidated;
                for op in &applied {
                    // Precise invalidation: only destinations covered by
                    // the changed prefix can have a different best match.
                    self.flow_cache.invalidate_prefix(op.prefix());
                }
                if !applied.is_empty() {
                    // The batch's first and, if it ran past `now`, last
                    // instant: all the phase breakdown reads of a walk.
                    let n = applied.len() as u64;
                    ctx.trace_instant("program", "fib.apply", 0, n, String::new);
                    let dropped = self.flow_cache.invalidated - invalidated_before;
                    if dropped > 0 {
                        ctx.trace_instant(
                            "program",
                            "flowcache.invalidate",
                            0,
                            dropped,
                            String::new,
                        );
                    }
                    let last = self.walker.last_apply_at.expect("a batch was applied");
                    if last > now {
                        ctx.trace_instant_at(last, "program", "fib.apply", 0, n, String::new);
                    }
                    ctx.metrics().inc("fib.apply_batches");
                    ctx.metrics().add("fib.ops_applied", n);
                }
                self.walker_batch_buf = applied;
                self.arm_walker(ctx);
            }
            TIMER_ARP => {
                self.arp_wakeup.fired(ctx.now());
                for target in self.arp.retries_due(ctx.now()) {
                    if let Some(iface_idx) = self.iface_for_nexthop(target) {
                        self.send_arp_request(ctx, iface_idx, target);
                    }
                }
                self.arm_arp_timer(ctx);
            }
            TimerToken(t) if t >= PEER_TIMER_BASE => {
                let idx = ((t - PEER_TIMER_BASE) / PEER_TIMER_STRIDE) as usize;
                if idx >= self.peers.len() {
                    return;
                }
                match (t - PEER_TIMER_BASE) % PEER_TIMER_STRIDE {
                    PEER_TIMER_CHANNEL => {
                        self.peers[idx].chan.on_timer(ctx);
                    }
                    PEER_TIMER_SESSION => {
                        self.peers[idx].session_wakeup.fired(ctx.now());
                        let events = self.peers[idx].session.poll(ctx.now());
                        self.handle_session_events(idx, events, ctx);
                        self.pump_peer(idx, ctx);
                    }
                    PEER_TIMER_BFD => {
                        self.peers[idx].bfd_wakeup.fired(ctx.now());
                        self.pump_bfd(idx, ctx);
                    }
                    PEER_TIMER_DEADLINE => {
                        self.check_peer_deadline(idx, ctx);
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_bgp::{AsPath, RouteAttrs};

    /// A provider's feed lives on in the peer's Adj-RIB-Out: `add_peer`
    /// moves it out of the peer's config, which keeps no handle on it.
    #[test]
    fn add_peer_consumes_the_originate_feed() {
        let peer_ip = Ipv4Addr::new(10, 0, 1, 1);
        let mut router = LegacyRouter::new(RouterConfig {
            name: "r2".into(),
            asn: 65002,
            router_id: Ipv4Addr::new(10, 0, 2, 1),
            cal: Calibration::instant(),
        });
        router.add_interface(Interface {
            port: PortId(0),
            ip: Ipv4Addr::new(10, 0, 1, 2),
            mac: MacAddr::from_octets([2, 0, 0, 0, 0, 2]),
            subnet: "10.0.1.0/24".parse().unwrap(),
        });
        let attrs = RouteAttrs::ebgp(AsPath::sequence(vec![65002, 65100]), peer_ip).shared();
        let nlri = |base: u32| -> Vec<Ipv4Prefix> {
            (base..base + 50)
                .map(|i| Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000 + (i << 8)), 24))
                .collect()
        };
        let feed = vec![
            UpdateMsg::announce(attrs.clone(), nlri(0)),
            UpdateMsg::announce(attrs, nlri(50)),
        ];
        router.add_peer(PeerConfig {
            originate: AdjRibOut::from_updates(&feed),
            ..PeerConfig::ebgp(peer_ip, MacAddr::from_octets([2, 0, 0, 0, 0, 1]), false)
        });
        assert!(router.peers[0].cfg.originate.is_empty());
        assert_eq!(router.adj_rib_out_len(peer_ip), Some(100));
    }

    /// The forwarding flow cache against the slow path it memoizes, in a
    /// live world: R1 (Nexus 7k walker) learns routes over eBGP from R2
    /// on 10.0.0.0/24, and a scripted segment on 10.1.0.0/24 sends it
    /// probes, ARP requests and replies.
    mod flow_cache_matches_slow_path {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use sc_net::wire::udp_frame;
        use sc_sim::{LinkParams, NodeId, World};

        const IP_R1: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
        const IP_R2: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
        const IP_R1_SEG: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
        const IP_SEG: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 100);
        const MAC_R1: MacAddr = MacAddr::from_octets([2, 0x10, 0, 0, 0, 1]);
        const MAC_R2: MacAddr = MacAddr::from_octets([2, 0x10, 0, 0, 0, 2]);
        const MAC_R1_SEG: MacAddr = MacAddr::from_octets([2, 0x10, 0, 0, 1, 1]);
        const MAC_SEG: MacAddr = MacAddr::from_octets([2, 0xaa, 0, 0, 0, 1]);
        /// R2, two segment neighbours, and one address no interface
        /// reaches.
        const NEXT_HOPS: [Ipv4Addr; 4] = [
            IP_R2,
            Ipv4Addr::new(10, 1, 0, 10),
            Ipv4Addr::new(10, 1, 0, 11),
            Ipv4Addr::new(10, 9, 9, 9),
        ];
        /// Nested, so more-specific inserts and removes move best matches.
        const PREFIXES: [&str; 6] = [
            "20.0.0.0/8",
            "20.1.0.0/16",
            "20.1.2.0/24",
            "20.1.3.0/24",
            "21.0.0.0/16",
            "21.0.0.0/24",
        ];
        /// Covered by one or more pool prefixes, by none, and the
        /// segment neighbours themselves (R1's connected route).
        const DESTS: [Ipv4Addr; 9] = [
            Ipv4Addr::new(20, 1, 2, 5),
            Ipv4Addr::new(20, 1, 3, 5),
            Ipv4Addr::new(20, 1, 9, 1),
            Ipv4Addr::new(20, 7, 0, 1),
            Ipv4Addr::new(21, 0, 0, 9),
            Ipv4Addr::new(21, 0, 5, 1),
            Ipv4Addr::new(30, 0, 0, 1),
            Ipv4Addr::new(10, 1, 0, 10),
            Ipv4Addr::new(10, 1, 0, 11),
        ];
        /// Past the 4 h lifetime of a learned ARP entry.
        const PAST_ARP_EXPIRY_US: u64 = (4 * 3600 + 1) * 1_000_000;

        /// Segment neighbour `n` (a next hop) and its MAC, variant `m`.
        fn neighbour(n: usize, m: u8) -> (Ipv4Addr, MacAddr) {
            (
                NEXT_HOPS[1 + n],
                MacAddr::from_octets([2, 0x11, 0, 0, n as u8, m]),
            )
        }

        /// Sends whatever the test queued when woken.
        #[derive(Default)]
        struct Segment {
            outbox: Vec<Vec<u8>>,
        }

        impl Node for Segment {
            fn name(&self) -> &str {
                "segment"
            }
            fn on_frame(&mut self, _ctx: &mut Ctx, _port: PortId, _frame: Frame) {}
            fn on_timer(&mut self, ctx: &mut Ctx, _token: TimerToken) {
                for frame in self.outbox.drain(..) {
                    ctx.send_frame(PortId(0), frame);
                }
            }
        }

        #[derive(Clone, Debug)]
        enum Step {
            /// R2 announces these pool prefixes via `NEXT_HOPS[nh]`.
            Announce(Vec<usize>, usize),
            /// R2 withdraws these pool prefixes.
            Withdraw(Vec<usize>),
            /// The segment sends a probe to `DESTS[d]`.
            Probe(usize),
            /// Neighbour `n` answers an ARP request with MAC variant `m`.
            ArpReply(usize, u8),
            /// Neighbour `n` asks who has R1's address (`true`) or the
            /// segment host's, from MAC variant `m`.
            ArpRequest(usize, u8, bool),
            /// R1 gets a static ARP entry for neighbour `n`.
            StaticArp(usize, u8),
            /// Time passes (µs).
            Wait(u64),
        }

        fn arb_step() -> impl Strategy<Value = Step> {
            prop_oneof![
                (vec(0..PREFIXES.len(), 1..4), 0..NEXT_HOPS.len())
                    .prop_map(|(p, nh)| Step::Announce(p, nh)),
                vec(0..PREFIXES.len(), 1..3).prop_map(Step::Withdraw),
                (0..DESTS.len()).prop_map(Step::Probe),
                (0..DESTS.len()).prop_map(Step::Probe),
                (0usize..2, 0u8..2).prop_map(|(n, m)| Step::ArpReply(n, m)),
                (0usize..2, 0u8..2, any::<bool>())
                    .prop_map(|(n, m, us)| Step::ArpRequest(n, m, us)),
                (0usize..2, 0u8..2).prop_map(|(n, m)| Step::StaticArp(n, m)),
                // One wait in four outlives every learned ARP entry.
                (0u8..4, 1u64..200_000).prop_map(|(k, us)| {
                    Step::Wait(if k == 0 { PAST_ARP_EXPIRY_US } else { us })
                }),
            ]
        }

        /// R1, R2 and the segment, with the eBGP session Established.
        fn build() -> (World, NodeId, NodeId, NodeId) {
            let mut world = World::new(7);
            let r1 = world.add_node(LegacyRouter::new(RouterConfig {
                name: "r1".into(),
                asn: 65001,
                router_id: IP_R1,
                cal: Calibration::nexus7k(),
            }));
            let r2 = world.add_node(LegacyRouter::new(RouterConfig {
                name: "r2".into(),
                asn: 65002,
                router_id: IP_R2,
                cal: Calibration::instant(),
            }));
            let seg = world.add_node(Segment::default());
            let wire = LinkParams::gigabit(SimDuration::from_micros(10));
            let (_, r1_lan, r2_lan) = world.connect(r1, r2, wire);
            let (_, r1_seg, _) = world.connect(r1, seg, wire);
            let r = world.node_mut::<LegacyRouter>(r1);
            r.add_interface(Interface {
                port: r1_lan,
                ip: IP_R1,
                mac: MAC_R1,
                subnet: "10.0.0.0/24".parse().unwrap(),
            });
            r.add_interface(Interface {
                port: r1_seg,
                ip: IP_R1_SEG,
                mac: MAC_R1_SEG,
                subnet: "10.1.0.0/24".parse().unwrap(),
            });
            r.add_peer(PeerConfig {
                local_port: 40000,
                remote_port: 179,
                ..PeerConfig::ebgp(IP_R2, MAC_R2, true)
            });
            let r = world.node_mut::<LegacyRouter>(r2);
            r.add_interface(Interface {
                port: r2_lan,
                ip: IP_R2,
                mac: MAC_R2,
                subnet: "10.0.0.0/24".parse().unwrap(),
            });
            r.add_peer(PeerConfig {
                local_port: 179,
                remote_port: 40000,
                ..PeerConfig::ebgp(IP_R1, MAC_R1, false)
            });
            world.run_until(SimTime::from_secs(1));
            assert_eq!(
                world.node::<LegacyRouter>(r1).peer_session_state(IP_R2),
                Some(sc_bgp::SessionState::Established)
            );
            (world, r1, r2, seg)
        }

        /// The first live cache entry that differs from the router's
        /// decision at `now`.
        fn mismatch(r: &LegacyRouter, now: SimTime) -> Option<String> {
            r.flow_cache
                .entries()
                .filter(|(_, cached)| cached.expires > now)
                .find_map(|(dst, cached)| {
                    let slow = match r.decide(dst, now) {
                        Forwarding::Via {
                            iface,
                            next_hop,
                            arp: Some((dst_mac, expires)),
                            ..
                        } => Some(FlowCacheEntry {
                            next_hop,
                            iface,
                            dst_mac,
                            expires,
                        }),
                        _ => None,
                    };
                    (slow != Some(cached))
                        .then(|| format!("{dst}: cached {cached:?}, decision {slow:?}"))
                })
        }

        /// The segment puts `frame` on the wire now.
        fn send(world: &mut World, seg: NodeId, frame: Vec<u8>) {
            world.node_mut::<Segment>(seg).outbox.push(frame);
            world.wake_node(world.now(), seg, TimerToken(0));
        }

        /// R2 sends `update` to R1 now.
        fn inject(world: &mut World, r2: NodeId, update: UpdateMsg) {
            let now = world.now();
            for token in world.node_mut::<LegacyRouter>(r2).inject_updates(&[update]) {
                world.wake_node(now, r2, token);
            }
        }

        fn arp(op: ArpOp, (ip, mac): (Ipv4Addr, MacAddr), target_ip: Ipv4Addr) -> Vec<u8> {
            let (dst, target_mac) = match op {
                ArpOp::Request => (MacAddr::BROADCAST, MacAddr::ZERO),
                ArpOp::Reply => (MAC_R1_SEG, MAC_R1_SEG),
            };
            let repr = ArpRepr {
                op,
                sender_mac: mac,
                sender_ip: ip,
                target_mac,
                target_ip,
            };
            EthernetRepr {
                dst,
                src: mac,
                ethertype: EtherType::Arp,
            }
            .to_frame(&repr.to_bytes())
        }

        fn apply(world: &mut World, (r1, r2, seg): (NodeId, NodeId, NodeId), step: &Step) {
            let pool = |idx: &[usize]| -> Vec<Ipv4Prefix> {
                idx.iter().map(|&i| PREFIXES[i].parse().unwrap()).collect()
            };
            match step {
                Step::Announce(p, nh) => {
                    let attrs = RouteAttrs::ebgp(AsPath::sequence(vec![65002]), NEXT_HOPS[*nh]);
                    inject(world, r2, UpdateMsg::announce(attrs.shared(), pool(p)));
                }
                Step::Withdraw(p) => inject(world, r2, UpdateMsg::withdraw(pool(p))),
                Step::Probe(d) => {
                    let probe = udp_frame(
                        UdpEndpoints {
                            src_mac: MAC_SEG,
                            dst_mac: MAC_R1_SEG,
                            src_ip: IP_SEG,
                            dst_ip: DESTS[*d],
                            src_port: 49152,
                            dst_port: 7,
                        },
                        64,
                        &[0xab; 18],
                    );
                    send(world, seg, probe);
                }
                Step::ArpReply(n, m) => {
                    send(world, seg, arp(ArpOp::Reply, neighbour(*n, *m), IP_R1_SEG))
                }
                Step::ArpRequest(n, m, to_r1) => {
                    let target = if *to_r1 { IP_R1_SEG } else { IP_SEG };
                    send(world, seg, arp(ArpOp::Request, neighbour(*n, *m), target));
                }
                Step::StaticArp(n, m) => {
                    let (ip, mac) = neighbour(*n, *m);
                    world.node_mut::<LegacyRouter>(r1).add_static_arp(ip, mac);
                }
                Step::Wait(us) => world.run_for(SimDuration::from_micros(*us)),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// After every step — FIB batches from BGP, probes, ARP
            /// traffic, static ARP, time past ARP expiry — each live
            /// cache entry is exactly what the slow path would compute.
            #[test]
            fn every_live_entry_matches(
                steps in vec((arb_step(), 20u64..3_000), 1..40),
            ) {
                let (mut world, r1, r2, seg) = build();
                for (step, settle_us) in &steps {
                    apply(&mut world, (r1, r2, seg), step);
                    world.run_for(SimDuration::from_micros(*settle_us));
                    let now = world.now();
                    let found = mismatch(world.node::<LegacyRouter>(r1), now);
                    prop_assert_eq!(found, None, "after {:?} at {}", step, now);
                }
            }
        }
    }

    /// [`LegacyRouter::accepts`] and [`LegacyRouter::decide`] against the
    /// data plane, in a live world: a router with random interfaces and
    /// static routes on three hosts' links, whose ARP bindings the hosts'
    /// replies, static entries and expiry move, probed on every link —
    /// again and again, so most probes ride the flow cache. The frame a
    /// probe leaves as, if any, is the one the decision names.
    mod decision_matches_data_plane {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use sc_net::wire::udp_frame;
        use sc_sim::{LinkParams, NodeId, World};

        const HOSTS: usize = 3;
        const LATENCY: SimDuration = SimDuration::from_micros(10);
        /// Interface subnets; the /16 holds the first /24.
        const SUBNETS: [&str; 3] = ["10.0.0.0/24", "10.1.0.0/24", "10.0.0.0/16"];
        /// On one or two subnets, only on the /16, on none, and "the
        /// destination itself" (a connected route).
        const NEXT_HOPS: [Ipv4Addr; 5] = [
            Ipv4Addr::new(10, 0, 0, 10),
            Ipv4Addr::new(10, 1, 0, 10),
            Ipv4Addr::new(10, 0, 5, 10),
            Ipv4Addr::new(10, 9, 9, 9),
            Ipv4Addr::UNSPECIFIED,
        ];
        const PREFIXES: [&str; 4] = ["20.0.0.0/8", "20.1.0.0/16", "20.1.2.0/24", "10.0.5.0/24"];
        /// Covered by nested static routes, by none, and neighbours on
        /// the connected subnets.
        const DESTS: [Ipv4Addr; 7] = [
            Ipv4Addr::new(20, 1, 2, 5),
            Ipv4Addr::new(20, 1, 9, 5),
            Ipv4Addr::new(20, 7, 0, 1),
            Ipv4Addr::new(30, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 10),
            Ipv4Addr::new(10, 1, 0, 10),
            Ipv4Addr::new(10, 0, 5, 10),
        ];
        /// Past the 4 h lifetime of a learned ARP entry.
        const PAST_ARP_EXPIRY_US: u64 = (4 * 3600 + 1) * 1_000_000;

        /// Interface `i`'s MAC (it sits on port `i`).
        fn iface_mac(i: usize) -> MacAddr {
            MacAddr::from_octets([2, 0x10, 0, 0, 0, i as u8])
        }

        /// Next hop `n`'s MAC, variant `m`.
        fn neighbour_mac(n: usize, m: u8) -> MacAddr {
            MacAddr::from_octets([2, 0x11, 0, 0, n as u8, m])
        }

        /// Sends what the test queues when woken; records what arrives.
        #[derive(Default)]
        struct Host {
            outbox: Vec<Vec<u8>>,
            received: Vec<(SimTime, Vec<u8>)>,
        }

        impl Node for Host {
            fn name(&self) -> &str {
                "host"
            }
            fn on_frame(&mut self, ctx: &mut Ctx, _port: PortId, frame: Frame) {
                self.received.push((ctx.now(), frame.to_vec()));
            }
            fn on_timer(&mut self, ctx: &mut Ctx, _token: TimerToken) {
                for frame in self.outbox.drain(..) {
                    ctx.send_frame(PortId(0), frame);
                }
            }
        }

        /// A frame as it leaves: port, source MAC, destination MAC.
        type Sent = (PortId, MacAddr, MacAddr);

        /// The router, noting for each probe the frame its decision
        /// names, if any, and when.
        struct Checked {
            router: LegacyRouter,
            named: Vec<(u16, SimTime, Option<Sent>)>,
        }

        impl Node for Checked {
            fn name(&self) -> &str {
                self.router.name()
            }
            fn on_start(&mut self, ctx: &mut Ctx) {
                self.router.on_start(ctx);
            }
            fn on_frame(&mut self, ctx: &mut Ctx, port: PortId, frame: Frame) {
                if let Ok(Some(d)) = peek_udp_frame(&frame) {
                    let r = &self.router;
                    let named = match r.decide(d.ip.dst, ctx.now()) {
                        Forwarding::Via {
                            port: out,
                            src_mac,
                            arp: Some((mac, _)),
                            ..
                        } if r.accepts(port, d.eth.dst) => Some((out, src_mac, mac)),
                        _ => None,
                    };
                    self.named.push((marker(d.payload), ctx.now(), named));
                }
                self.router.on_frame(ctx, port, frame);
            }
            fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
                self.router.on_timer(ctx, token);
            }
        }

        fn marker(payload: &[u8]) -> u16 {
            u16::from_be_bytes([payload[0], payload[1]])
        }

        #[derive(Clone, Debug)]
        enum Step {
            /// Host `host` probes `DESTS[dest]` `times` times in a row,
            /// addressed to the MAC of its own link's interface (`to` 0
            /// or 1), to broadcast (2), or to the next link's (3).
            Probe {
                host: usize,
                dest: usize,
                to: u8,
                times: usize,
            },
            /// Host `host` answers that `NEXT_HOPS[n]` is at MAC variant
            /// `m` (an ARP reply).
            ArpReply { host: usize, n: usize, m: u8 },
            /// The router gets a static ARP entry for `NEXT_HOPS[n]`.
            StaticArp { n: usize, m: u8 },
            /// Time passes (µs).
            Wait(u64),
        }

        fn arb_step() -> impl Strategy<Value = Step> {
            let probe = || {
                (0..HOSTS, 0..DESTS.len(), 0u8..4, 1usize..4).prop_map(|(host, dest, to, times)| {
                    Step::Probe {
                        host,
                        dest,
                        to,
                        times,
                    }
                })
            };
            prop_oneof![
                probe(),
                probe(),
                probe(),
                probe(),
                (0..HOSTS, 0usize..3, 0u8..2).prop_map(|(host, n, m)| Step::ArpReply {
                    host,
                    n,
                    m
                }),
                (0usize..3, 0u8..2).prop_map(|(n, m)| Step::StaticArp { n, m }),
                // One wait in eight outlives every learned ARP entry.
                (0u8..8, 1u64..200_000).prop_map(|(k, us)| {
                    Step::Wait(if k == 0 { PAST_ARP_EXPIRY_US } else { us })
                }),
            ]
        }

        /// The router, on port `i` to host `i`, with an interface on
        /// `SUBNETS[s]` for each `s` of `subnets` (port `i`'s, in turn;
        /// hosts past them reach a port without one) and the static
        /// routes `(PREFIXES[p], NEXT_HOPS[n])`.
        fn build(subnets: &[usize], routes: &[(usize, usize)]) -> (World, NodeId, Vec<NodeId>) {
            let mut world = World::new(3);
            let mut router = LegacyRouter::new(RouterConfig {
                name: "r1".into(),
                asn: 65001,
                router_id: Ipv4Addr::new(10, 0, 0, 1),
                cal: Calibration::instant(),
            });
            for (i, &s) in subnets.iter().enumerate() {
                let subnet: Ipv4Prefix = SUBNETS[s].parse().unwrap();
                router.add_interface(Interface {
                    port: PortId(i),
                    ip: Ipv4Addr::from(u32::from(subnet.network()) + i as u32 + 1),
                    mac: iface_mac(i),
                    subnet,
                });
            }
            for &(p, n) in routes {
                router.add_static_route(StaticRoute {
                    prefix: PREFIXES[p].parse().unwrap(),
                    next_hop: NEXT_HOPS[n],
                });
            }
            let r1 = world.add_node(Checked {
                router,
                named: Vec::new(),
            });
            let hosts = (0..HOSTS)
                .map(|_| {
                    let h = world.add_node(Host::default());
                    world.connect(r1, h, LinkParams::with_latency(LATENCY));
                    h
                })
                .collect();
            world.run_until(SimTime::from_millis(1));
            (world, r1, hosts)
        }

        /// Host `host` puts `frame` on the wire now.
        fn send(world: &mut World, host: NodeId, frame: Vec<u8>) {
            world.node_mut::<Host>(host).outbox.push(frame);
            world.wake_node(world.now(), host, TimerToken(0));
        }

        /// Run `step`; probes are numbered on from `probes`.
        fn apply(world: &mut World, r1: NodeId, hosts: &[NodeId], probes: &mut u16, step: &Step) {
            match *step {
                Step::Probe {
                    host,
                    dest,
                    to,
                    times,
                } => {
                    let ep = UdpEndpoints {
                        src_mac: MacAddr::from_octets([2, 0xaa, 0, 0, 0, host as u8]),
                        dst_mac: match to {
                            0 | 1 => iface_mac(host),
                            2 => MacAddr::BROADCAST,
                            _ => iface_mac((host + 1) % HOSTS),
                        },
                        src_ip: Ipv4Addr::new(192, 168, 0, 1),
                        dst_ip: DESTS[dest],
                        src_port: 49152,
                        dst_port: 7,
                    };
                    for _ in 0..times {
                        *probes += 1;
                        send(world, hosts[host], udp_frame(ep, 64, &probes.to_be_bytes()));
                        world.run_for(SimDuration::from_micros(50));
                    }
                }
                Step::ArpReply { host, n, m } => {
                    let mac = neighbour_mac(n, m);
                    let reply = ArpRepr {
                        op: ArpOp::Reply,
                        sender_mac: mac,
                        sender_ip: NEXT_HOPS[n],
                        target_mac: iface_mac(host),
                        target_ip: Ipv4Addr::UNSPECIFIED,
                    };
                    let frame = EthernetRepr {
                        dst: iface_mac(host),
                        src: mac,
                        ethertype: EtherType::Arp,
                    }
                    .to_frame(&reply.to_bytes());
                    send(world, hosts[host], frame);
                }
                Step::StaticArp { n, m } => {
                    let r = &mut world.node_mut::<Checked>(r1).router;
                    r.add_static_arp(NEXT_HOPS[n], neighbour_mac(n, m));
                }
                Step::Wait(us) => world.run_for(SimDuration::from_micros(us)),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn every_probe_leaves_as_decided(
                subnets in vec(0..SUBNETS.len(), 1..=HOSTS),
                routes in vec((0..PREFIXES.len(), 0..NEXT_HOPS.len()), 1..6),
                steps in vec((arb_step(), 20u64..3_000), 1..40),
            ) {
                let (mut world, r1, hosts) = build(&subnets, &routes);
                let mut probes = 0;
                for (step, settle_us) in &steps {
                    apply(&mut world, r1, &hosts, &mut probes, step);
                    world.run_for(SimDuration::from_micros(*settle_us));
                }
                for &(probe, at, named) in &world.node::<Checked>(r1).named {
                    // What left right then: a frame parked for ARP and
                    // released later is the ARP queue's, not the decision's.
                    let mut sent = Vec::new();
                    for (port, &h) in hosts.iter().enumerate() {
                        for (t, frame) in &world.node::<Host>(h).received {
                            if let Ok(Some(d)) = peek_udp_frame(frame) {
                                if marker(d.payload) == probe && *t == at + LATENCY {
                                    sent.push((PortId(port), d.eth.src, d.eth.dst));
                                }
                            }
                        }
                    }
                    let named: Vec<_> = named.into_iter().collect();
                    prop_assert_eq!(sent, named, "probe {} at {}", probe, at);
                }
            }
        }
    }
}
