//! Wire a [`Blueprint`] into a runnable [`sc_sim::World`].
//!
//! One builder for every topology: R1 + M ranked providers around the
//! OpenFlow switch, each delivering to the sink directly or through a
//! shared forwarder fabric. The blueprint names each provider's
//! identity and links; the configuration ([`ScenarioConfig`]) is
//! applied on top, the same way for every topology, Fig. 4 included.
//!
//! Addressing plan (the Fig. 4 lab's, [`sc_lab::topology`], extended;
//! the Fig. 4 blueprint numbers its providers R2/R3 instead):
//!
//! | node            | IP                | MAC               |
//! |-----------------|-------------------|-------------------|
//! | R1              | 10.0.0.1          | 02:10:…:01        |
//! | provider i      | 10.0.0.(30+i)     | 02:40:…:(i+1)     |
//! | controller c    | 10.0.0.(10+c)     | 02:cc:…:(c+1)     |
//! | switch (mgmt)   | 10.0.0.20         | 02:ee:…:01        |
//! | source          | 10.0.0.100        | 02:aa:…:01        |
//! | path edge k     | 10.(40+k).0.0/24  | 02:60:00:00:k:side|
//! | sink (any edge) | x.x.x.100         | 02:bb:…:01        |

use crate::topo::{Blueprint, Delivery, ProviderSpec, TopologySpec};
use sc_bfd::BfdConfig;
use sc_bgp::msg::UpdateMsg;
use sc_lab::topology::{
    controller_ip, controller_mac, IP_R1, IP_SOURCE, IP_SWITCH, MAC_R1, MAC_SINK, MAC_SOURCE,
    MAC_SWITCH,
};
use sc_lab::Mode;
use sc_net::{Ipv4Addr, Ipv4Prefix, MacAddr, SimDuration, SimTime};
use sc_openflow::{OfSwitch, SwitchConfig};
use sc_routegen::{
    generate_adj_rib_out, generate_feed_for, prefix_universe, sample_flow_ips, FeedConfig,
};
use sc_router::{Calibration, Interface, LegacyRouter, PeerConfig, RouterConfig, StaticRoute};
use sc_sim::{LinkId, LinkParams, NodeId, PortId, TimerToken, World};
use sc_traffic::{SinkConfig, SourceConfig, TrafficSink, TrafficSource};
use std::sync::Arc;
use supercharger::engine::PeerSpec;
use supercharger::{Controller, ControllerConfig, PeerLink, RouterLink, SwitchLink};

/// LOCAL_PREF R1 assigns to controller-learned routes when
/// [`ScenarioConfig::fallback_sessions`] is on: strictly above every
/// blueprint provider preference, so supercharged paths win while any
/// controller session lives and the direct eBGP fallback takes over the
/// instant the last one dies.
pub const CONTROLLER_PREF: u32 = 1_000;

/// BGP hold time on both ends of the R1 ↔ controller sessions: the
/// fallback detection path when no `controller_deadline` watchdog is
/// armed (RFC 4271 floors negotiated holds at 3 s).
const CONTROLLER_HOLD: SimDuration = SimDuration::from_secs(90);

/// Where the providers' route feeds come from.
#[derive(Clone, Debug, Default)]
pub enum FeedSource {
    /// Deterministic synthetic tables from `sc_routegen` (the default;
    /// every provider announces `prefixes` prefixes).
    #[default]
    Synthetic,
    /// Tables from an MRT `TABLE_DUMP_V2` snapshot (a committed fixture
    /// or a RIS `bview` file). Recorded peer `k` seeds provider
    /// `k % providers`, with next-hops rewritten to that provider's
    /// address: RIS routes loaded onto R2/R3, as in the paper's lab.
    /// Overrides `prefixes` with the snapshot's table size.
    MrtSnapshot(std::sync::Arc<Vec<u8>>),
}

/// Scenario-wide knobs shared by every topology.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Number of prefixes every provider advertises.
    pub prefixes: u32,
    /// Number of monitored flows.
    pub flows: usize,
    /// Seed for feeds, flow sampling, and all simulation randomness.
    pub seed: u64,
    /// Probe rate per flow the source sends; `None` is the paper's
    /// 14,000 pps.
    pub rate_pps: Option<u64>,
    /// R1's hardware model.
    pub cal: Calibration,
    /// Run BFD on the primary provider's sessions.
    pub bfd: bool,
    pub bfd_interval: SimDuration,
    /// Controller replicas (supercharged mode).
    pub controllers: usize,
    /// Controller compute/REST latency before FLOW_MODs leave.
    pub reaction_delay: SimDuration,
    /// React to switch PORT_STATUS carrier loss in addition to BFD
    /// (an ablation beyond the paper: detection drops from ~90 ms to
    /// the wire latency).
    pub portstatus_failover: bool,
    /// Frame-loss probability on controller↔switch links from the
    /// start of the trial (a script degrades any link mid-run with
    /// [`crate::events::ScenarioEvent::SetLinkFaults`]). Also widens the
    /// supercharged convergence budget for retransmission rounds.
    pub control_loss: f64,
    /// Keepalive/echo beacon interval of each controller replica (to
    /// both the switch agent and R1). `None` (the default) sends no
    /// beacons, leaving liveness to BGP hold timers — the pre-fail-safe
    /// behavior.
    pub echo_interval: Option<SimDuration>,
    /// Liveness deadline armed against the beacons on the switch agent
    /// and on R1's controller sessions: silence for this long flips the
    /// node out of supercharging (the router enters **Degraded**).
    /// `None` disables the watchdogs.
    pub controller_deadline: Option<SimDuration>,
    /// Graceful degradation (supercharged mode only): R1 keeps direct
    /// eBGP fallback sessions to every provider at the blueprint's
    /// local-prefs while controller sessions import at
    /// [`CONTROLLER_PREF`]. The supercharged paths shadow the fallback
    /// routes until every controller session is gone, at which point
    /// the purge promotes the fallback routes and legacy BGP drives the
    /// FIB directly.
    pub fallback_sessions: bool,
    /// Keep a bounded event trace.
    pub trace: bool,
    /// Where provider feeds come from (synthetic tables or an MRT
    /// snapshot).
    pub feed: FeedSource,
    /// Run the convergence-invariant engine (`sc-invariant`): walk the
    /// installed FIBs every 5 ms inside each measurement window and
    /// report per-class violation durations, at that resolution. Off by
    /// default — the samples are deterministic but not free, and the
    /// perf-gated benches compare against uninstrumented baselines.
    pub invariants: bool,
}

impl Default for ScenarioConfig {
    fn default() -> ScenarioConfig {
        ScenarioConfig {
            prefixes: 1_000,
            flows: 50,
            seed: 42,
            rate_pps: None,
            cal: Calibration::nexus7k(),
            bfd: true,
            bfd_interval: SimDuration::from_millis(30),
            controllers: 1,
            reaction_delay: SimDuration::from_millis(3),
            portstatus_failover: false,
            control_loss: 0.0,
            echo_interval: None,
            controller_deadline: None,
            fallback_sessions: false,
            trace: false,
            feed: FeedSource::Synthetic,
            invariants: false,
        }
    }
}

/// A wired, ready-to-run scenario world with every name an event
/// script can target resolved to concrete simulator ids.
pub struct BuiltScenario {
    pub world: World,
    pub cfg: ScenarioConfig,
    pub mode: Mode,
    pub blueprint: Blueprint,
    pub switch: NodeId,
    pub r1: NodeId,
    pub providers: Vec<NodeId>,
    pub provider_ips: Vec<Ipv4Addr>,
    pub forwarders: Vec<NodeId>,
    pub controllers: Vec<NodeId>,
    /// Switch ↔ controller links, one per replica (replica-divergence
    /// scripts cut or delay these).
    pub controller_links: Vec<LinkId>,
    pub source: NodeId,
    pub sink: NodeId,
    /// Provider i ↔ switch (the "pull the cable" target).
    pub provider_switch_links: Vec<LinkId>,
    /// Provider i's first delivery edge (toward its entry forwarder or
    /// the sink).
    pub provider_path_links: Vec<LinkId>,
    /// Forwarder j's uplink toward the sink (empty for Fig. 4).
    pub forwarder_up_links: Vec<LinkId>,
    pub flow_ips: Vec<Ipv4Addr>,
    /// Every provider's prefixes, sorted; the synthetic feeds' tables
    /// share this list.
    pub universe: Arc<[Ipv4Prefix]>,
    /// Restart factories: the exact config each controller replica was
    /// built from, so a `restart_controller` chaos event can boot a
    /// fresh process into the crashed slot. Empty for legacy builds.
    pub controller_cfgs: Vec<ControllerConfig>,
}

/// The prefix universe for a scenario, from whichever source the config
/// names, and the loaded snapshot when that source is an MRT archive.
fn derive_universe(cfg: &ScenarioConfig) -> (Arc<[Ipv4Prefix]>, Option<sc_mrt::RibSnapshot>) {
    match &cfg.feed {
        FeedSource::Synthetic => (prefix_universe(cfg.prefixes, cfg.seed).into(), None),
        FeedSource::MrtSnapshot(rib) => {
            let snap = load_snapshot(rib);
            let universe = snap.prefixes();
            assert!(!universe.is_empty(), "MRT snapshot carries no routes");
            (universe.into(), Some(snap))
        }
    }
}

fn load_snapshot(rib: &[u8]) -> sc_mrt::RibSnapshot {
    sc_mrt::RibSnapshot::load(rib).unwrap_or_else(|e| panic!("MRT RIB snapshot: {e}"))
}

/// Provider `i`'s feed out of an MRT snapshot: recorded peer
/// `i % peers` seeds it, with next-hops rewritten to the provider's LAN
/// address `ip` (attribute-run sharing preserved, so NLRI packing
/// matches a real speaker's).
fn mrt_feed(snap: &sc_mrt::RibSnapshot, i: usize, ip: Ipv4Addr) -> Vec<UpdateMsg> {
    let peer_n = snap.peers.len().max(1);
    let routes = snap.routes_for_peer((i % peer_n) as u16);
    let rewritten = sc_mrt::NextHopRewriter::new(ip).rewrite_routes(&routes);
    sc_mrt::pack_feed(&rewritten, 300)
}

/// The feed provider `i` (`spec`) originates over `universe`: a pure
/// function of the config (seed or archive bytes) and the provider's
/// identity.
fn feed_for(
    cfg: &ScenarioConfig,
    universe: &[Ipv4Prefix],
    i: usize,
    spec: &ProviderSpec,
) -> Vec<UpdateMsg> {
    match &cfg.feed {
        FeedSource::Synthetic => generate_feed_for(&feed_config(cfg, spec), universe),
        FeedSource::MrtSnapshot(rib) => mrt_feed(&load_snapshot(rib), i, spec.ip),
    }
}

/// Provider `spec`'s synthetic feed parameters under `cfg`.
fn feed_config(cfg: &ScenarioConfig, spec: &ProviderSpec) -> FeedConfig {
    FeedConfig::new(cfg.prefixes, cfg.seed, spec.ip, spec.asn)
}

pub fn provider_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 30 + i as u8)
}

pub fn provider_mac(i: usize) -> MacAddr {
    MacAddr::from_octets([0x02, 0x40, 0, 0, 0, i as u8 + 1])
}

pub(crate) fn provider_asn(i: usize) -> u16 {
    65100 + i as u16
}

/// Delivery edge `k`'s subnet: side 1 holds `.1`, a forwarder on side 2
/// `.2`, the sink `.100`.
pub(crate) fn edge_subnet(k: usize) -> Ipv4Prefix {
    assert!(k < 200, "delivery fabric exceeds the addressing plan");
    Ipv4Prefix::new(Ipv4Addr::new(10, 40 + k as u8, 0, 0), 24)
}

pub(crate) fn edge_mac(k: usize, side: u8) -> MacAddr {
    MacAddr::from_octets([0x02, 0x60, 0, 0, k as u8, side])
}

fn lan() -> Ipv4Prefix {
    "10.0.0.0/16".parse().unwrap()
}

fn vnh_pool() -> Ipv4Prefix {
    "10.0.200.0/24".parse().unwrap()
}

/// Build the world for one (topology, mode) pair.
pub fn build_scenario(topo: &TopologySpec, mode: Mode, cfg: &ScenarioConfig) -> BuiltScenario {
    let bp = topo.blueprint();
    let m = bp.providers.len();
    assert!((2..=16).contains(&m), "2..=16 providers supported, got {m}");
    assert!(
        mode != Mode::Supercharged || cfg.controllers >= 1,
        "supercharged mode needs at least one controller"
    );
    assert!(cfg.flows >= 1 && cfg.prefixes >= 1);
    let (universe, snapshot) = derive_universe(cfg);
    let flow_ips = sample_flow_ips(&universe, cfg.flows, cfg.seed);
    // An MRT snapshot overrides the configured table size; keep the
    // stored config consistent with what the providers actually
    // announce (convergence checks and reports read it from there).
    let cfg = &ScenarioConfig {
        prefixes: universe.len() as u32,
        ..cfg.clone()
    };

    let mut world = World::new(cfg.seed);
    if cfg.trace {
        world.enable_trace(1_000_000);
        world.enable_metrics();
    }
    let lanp = LinkParams::gigabit(SimDuration::from_micros(10));

    // --- nodes ---
    let switch = world.add_node(OfSwitch::new(SwitchConfig {
        controller_deadline: cfg.controller_deadline,
        ..SwitchConfig::paper_defaults("scenario-switch")
    }));
    let r1 = world.add_node(LegacyRouter::new(RouterConfig {
        name: "r1".into(),
        asn: 65001,
        router_id: Ipv4Addr::new(1, 1, 1, 1),
        cal: cfg.cal,
    }));
    let providers: Vec<NodeId> = bp
        .providers
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            world.add_node(LegacyRouter::new(RouterConfig {
                name: format!("provider-{i}"),
                asn: spec.asn,
                router_id: spec.router_id,
                cal: Calibration::instant(),
            }))
        })
        .collect();
    let forwarders: Vec<NodeId> = (0..bp.forwarders.len())
        .map(|j| {
            world.add_node(LegacyRouter::new(RouterConfig {
                name: format!("forwarder-{j}"),
                asn: 64512,
                router_id: Ipv4Addr::new(9, 9, 9, j as u8 + 1),
                cal: Calibration::instant(),
            }))
        })
        .collect();
    let paper_source = SourceConfig::paper(
        "fpga-source",
        MAC_SOURCE,
        IP_SOURCE,
        MAC_R1,
        flow_ips.clone(),
        SimTime::MAX - SimDuration::from_secs(1), // re-windowed later
        SimTime::MAX,
    );
    let source = world.add_node(TrafficSource::new(
        SourceConfig {
            rate_pps: cfg.rate_pps.unwrap_or(paper_source.rate_pps),
            ..paper_source
        },
        PortId(0),
    ));
    let sink = world.add_node(TrafficSink::new(SinkConfig::paper(
        "fpga-sink",
        flow_ips.clone(),
    )));

    // --- LAN wiring (order fixes each node's PortId(0)) ---
    let (_, sw_port_r1, _) = world.connect(switch, r1, lanp);
    let mut provider_switch_links = Vec::new();
    let mut sw_port_p = Vec::new();
    for (i, spec) in bp.providers.iter().enumerate() {
        let (l, swp, _) =
            world.connect(switch, providers[i], LinkParams::gigabit(spec.lan_latency));
        provider_switch_links.push(l);
        sw_port_p.push(swp);
    }
    let (_, sw_port_src, _) = world.connect(switch, source, lanp);

    // --- delivery fabric ---
    // Interface/route configuration is collected first and applied after
    // all links exist (connect() hands out the port ids).
    struct RouterSetup {
        node: NodeId,
        iface: Interface,
        arp: (Ipv4Addr, MacAddr),
        default_route: Option<Ipv4Addr>,
    }
    let mut setups: Vec<RouterSetup> = Vec::new();

    // Wire `a`'s uplink over `subnet`, where `a` holds `.1` with `a_mac`,
    // to a forwarder holding `.2` (`far`) or, when `far` is `None`, to
    // the sink at `.100`; returns the link so scripts can target it.
    let wire_edge = |world: &mut World,
                     setups: &mut Vec<RouterSetup>,
                     a: NodeId,
                     (subnet, a_mac): (Ipv4Prefix, MacAddr),
                     far: Option<(NodeId, MacAddr)>,
                     latency: SimDuration|
     -> LinkId {
        let host = |n: u32| Ipv4Addr::from(subnet.raw_bits() + n);
        let (far_node, far_ip, far_mac) = match far {
            Some((fwd, mac)) => (fwd, host(2), mac),
            None => (sink, host(100), MAC_SINK),
        };
        let (link, pa, pb) = world.connect(a, far_node, LinkParams::gigabit(latency));
        setups.push(RouterSetup {
            node: a,
            iface: Interface {
                port: pa,
                ip: host(1),
                mac: a_mac,
                subnet,
            },
            arp: (far_ip, far_mac),
            default_route: Some(far_ip),
        });
        if far.is_some() {
            setups.push(RouterSetup {
                node: far_node,
                iface: Interface {
                    port: pb,
                    ip: far_ip,
                    mac: far_mac,
                    subnet,
                },
                arp: (host(1), a_mac),
                default_route: None,
            });
        }
        link
    };
    // Edge `k` of the generic plan, from side 1 toward forwarder `far`
    // (side 2) or the sink.
    let plan_edge = |k: usize, far: Option<NodeId>| {
        let near = (edge_subnet(k), edge_mac(k, 1));
        (near, far.map(|f| (f, edge_mac(k, 2))))
    };

    // Forwarder uplinks first (a forwarder's uplink is its PortId(0)):
    // edges 0..F.
    let mut forwarder_up_links = Vec::new();
    for (j, f) in bp.forwarders.iter().enumerate() {
        let (near, far) = plan_edge(j, f.next.map(|n| forwarders[n]));
        forwarder_up_links.push(wire_edge(
            &mut world,
            &mut setups,
            forwarders[j],
            near,
            far,
            f.latency,
        ));
    }
    // Provider delivery edges: edge F+i into the fabric, or the
    // blueprint's own sink edge.
    let mut provider_path_links = Vec::new();
    for (i, spec) in bp.providers.iter().enumerate() {
        let (near, far) = match spec.delivery {
            Delivery::Forwarder(e) => plan_edge(bp.forwarders.len() + i, Some(forwarders[e])),
            Delivery::Sink { subnet, mac } => ((subnet, mac), None),
        };
        provider_path_links.push(wire_edge(
            &mut world,
            &mut setups,
            providers[i],
            near,
            far,
            spec.edge_latency,
        ));
    }
    // --- BFD: on the primary provider's sessions only (provider 0, by
    // the blueprint's preference order), every session at the
    // configured interval ---
    let bfd_provider = cfg.bfd.then_some(0);
    let bfd = |local_discr: usize, detect_mult: u8| BfdConfig {
        local_discr: local_discr as u32,
        desired_min_tx: cfg.bfd_interval,
        required_min_rx: cfg.bfd_interval,
        detect_mult,
    };

    // --- controllers (supercharged only) ---
    let peer_specs: Vec<PeerSpec> = bp
        .providers
        .iter()
        .zip(&sw_port_p)
        .map(|(spec, port)| PeerSpec {
            id: spec.ip,
            mac: spec.mac,
            switch_port: port.0 as u16,
            local_pref: spec.local_pref,
            router_id: spec.router_id,
        })
        .collect();
    let controllers_n = if mode == Mode::Supercharged {
        cfg.controllers
    } else {
        0
    };
    let mut controllers = Vec::new();
    let mut controller_links = Vec::new();
    let mut sw_ctrl_ports = Vec::new();
    let mut controller_cfgs = Vec::new();
    for ci in 0..controllers_n {
        let ctrl_cfg = ControllerConfig {
            name: format!("supercharger-{ci}"),
            seed: cfg.seed.wrapping_add(ci as u64),
            echo_interval: cfg.echo_interval,
            asn: 65000,
            router_id: Ipv4Addr::new(99, 99, 99, ci as u8 + 1),
            ip: controller_ip(ci),
            mac: controller_mac(ci),
            engine: supercharger::EngineConfig::new(vnh_pool(), peer_specs.clone()),
            router: RouterLink {
                router_ip: IP_R1,
                router_mac: MAC_R1,
                local_port: 179,
                remote_port: (40000 + ci) as u16,
                hold_time: CONTROLLER_HOLD,
            },
            peers: (0..m)
                .map(|i| PeerLink {
                    spec: peer_specs[i],
                    local_port: (41000 + ci * 100 + i) as u16,
                    remote_port: 179,
                    hold_time: SimDuration::from_secs(90),
                    bfd: (bfd_provider == Some(i)).then(|| bfd(100 + ci * 10, 3)),
                })
                .collect(),
            switch: SwitchLink {
                switch_ip: IP_SWITCH,
                switch_mac: MAC_SWITCH,
                local_port: (45000 + ci) as u16,
            },
            reaction_delay: cfg.reaction_delay,
            portstatus_failover: cfg.portstatus_failover,
        };
        controller_cfgs.push(ctrl_cfg.clone());
        let ctrl = world.add_node(Controller::new(ctrl_cfg, PortId(0)));
        let ctrl_link = LinkParams {
            loss: cfg.control_loss,
            ..lanp
        };
        let (ctrl_l, sw_port_ctrl, _) = world.connect(switch, ctrl, ctrl_link);
        sw_ctrl_ports.push(sw_port_ctrl);
        controller_links.push(ctrl_l);
        controllers.push(ctrl);
    }

    // --- switch port registration + control channels ---
    {
        let sw = world.node_mut::<OfSwitch>(switch);
        sw.register_data_port(sw_port_r1);
        for p in &sw_port_p {
            sw.register_data_port(*p);
        }
        sw.register_data_port(sw_port_src);
        for (ci, p) in sw_ctrl_ports.iter().enumerate() {
            sw.register_data_port(*p);
            sw.attach_controller(sc_sim::ChannelPort::listen(
                sc_net::wire::UdpEndpoints {
                    src_mac: MAC_SWITCH,
                    dst_mac: controller_mac(ci),
                    src_ip: IP_SWITCH,
                    dst_ip: controller_ip(ci),
                    src_port: sc_net::wire::udp::port::OPENFLOW,
                    dst_port: (45000 + ci) as u16,
                },
                *p,
                TimerToken(0), // reassigned by attach_controller
            ));
        }
    }

    // --- R1 ---
    {
        let r1n = world.node_mut::<LegacyRouter>(r1);
        r1n.add_interface(Interface {
            port: PortId(0),
            ip: IP_R1,
            mac: MAC_R1,
            subnet: lan(),
        });
        match mode {
            Mode::Stock => {
                for (i, spec) in bp.providers.iter().enumerate() {
                    r1n.add_peer(PeerConfig {
                        local_pref: spec.local_pref,
                        local_port: (40000 + i) as u16,
                        remote_port: 179,
                        bfd: (bfd_provider == Some(i)).then(|| bfd(12, 3)),
                        ..PeerConfig::ebgp(spec.ip, spec.mac, true)
                    });
                }
            }
            Mode::Supercharged => {
                for ci in 0..controllers_n {
                    r1n.add_peer(PeerConfig {
                        local_port: (40000 + ci) as u16,
                        remote_port: 179,
                        local_pref: if cfg.fallback_sessions {
                            CONTROLLER_PREF
                        } else {
                            sc_bgp::decision::DEFAULT_LOCAL_PREF
                        },
                        hold_time: CONTROLLER_HOLD,
                        controller: true,
                        deadline: cfg.controller_deadline,
                        ..PeerConfig::ebgp(controller_ip(ci), controller_mac(ci), true)
                    });
                }
                if cfg.fallback_sessions {
                    // Graceful-degradation shadow plane: direct eBGP to
                    // every provider at the blueprint's preferences —
                    // identical policy to a Stock build, just parked
                    // below CONTROLLER_PREF until degradation promotes
                    // it. The fallback BFD runs detect_mult 2 (vs the
                    // stock plane's 3): worst-case fallback detection is
                    // 2 × interval past the last rx, which never exceeds
                    // the stock session's best case, so a degraded churn
                    // starts no later than the legacy baseline's
                    // regardless of jitter phase.
                    for (i, spec) in bp.providers.iter().enumerate() {
                        r1n.add_peer(PeerConfig {
                            local_pref: spec.local_pref,
                            local_port: (46000 + i) as u16,
                            remote_port: 179,
                            bfd: (bfd_provider == Some(i)).then(|| bfd(12, 2)),
                            ..PeerConfig::ebgp(spec.ip, spec.mac, true)
                        });
                    }
                }
            }
        }
    }

    // --- providers: LAN interface, feed, BGP sessions ---
    // A snapshot's recorded peers, each one's table built once: the
    // providers replaying a peer (provider `i` replays peer `i % peers`)
    // share its prefix list, the universe's where the two are equal.
    let peer_tables: Vec<sc_mrt::PeerTable> = snapshot.as_ref().map_or(Vec::new(), |snap| {
        let recorded = snap.peers.len().max(1).min(bp.providers.len());
        (0..recorded)
            .map(|k| snap.peer_table(k as u16).sharing(&universe))
            .collect()
    });
    for (i, (&provider, spec)) in providers.iter().zip(&bp.providers).enumerate() {
        let rn = world.node_mut::<LegacyRouter>(provider);
        rn.add_interface(Interface {
            port: PortId(0),
            ip: spec.ip,
            mac: spec.mac,
            subnet: lan(),
        });
        let bfd_on = bfd_provider == Some(i);
        let mut peers = Vec::new();
        match mode {
            Mode::Stock => {
                peers.push(PeerConfig {
                    local_port: 179,
                    remote_port: (40000 + i) as u16,
                    bfd: bfd_on.then(|| bfd(20 + i * 10, 3)),
                    ..PeerConfig::ebgp(IP_R1, MAC_R1, false)
                });
            }
            Mode::Supercharged => {
                for ci in 0..controllers_n {
                    peers.push(PeerConfig {
                        local_port: 179,
                        remote_port: (41000 + ci * 100 + i) as u16,
                        bfd: bfd_on.then(|| bfd(20 + i * 10 + ci, 3)),
                        ..PeerConfig::ebgp(controller_ip(ci), controller_mac(ci), false)
                    });
                }
                if cfg.fallback_sessions {
                    peers.push(PeerConfig {
                        local_port: 179,
                        remote_port: (46000 + i) as u16,
                        // Mirrors the R1-side fallback mult: degraded
                        // detection beats the stock plane's worst case.
                        bfd: bfd_on.then(|| bfd(80 + i, 2)),
                        ..PeerConfig::ebgp(IP_R1, MAC_R1, false)
                    });
                }
            }
        }
        // Every session originates the provider's feed, one table they
        // share; a synthetic feed's table shares the universe too.
        let originate = match &snapshot {
            Some(_) => peer_tables[i % peer_tables.len()].adj_rib_out(spec.ip),
            None => generate_adj_rib_out(&feed_config(cfg, spec), &universe),
        };
        for peer in peers {
            rn.add_peer(PeerConfig {
                originate: originate.clone(),
                ..peer
            });
        }
    }

    // --- delivery-fabric interfaces, ARP and static routes ---
    for s in setups {
        let rn = world.node_mut::<LegacyRouter>(s.node);
        rn.add_interface(s.iface);
        rn.add_static_arp(s.arp.0, s.arp.1);
        if let Some(nh) = s.default_route {
            rn.add_static_route(StaticRoute {
                prefix: Ipv4Prefix::DEFAULT,
                next_hop: nh,
            });
        }
    }

    let provider_ips = bp.providers.iter().map(|p| p.ip).collect();
    BuiltScenario {
        world,
        cfg: cfg.clone(),
        mode,
        blueprint: bp,
        switch,
        r1,
        providers,
        provider_ips,
        forwarders,
        controllers,
        controller_links,
        source,
        sink,
        provider_switch_links,
        provider_path_links,
        forwarder_up_links,
        flow_ips,
        universe,
        controller_cfgs,
    }
}

impl BuiltScenario {
    /// The feed provider `i` originated when the world was built, as
    /// UPDATEs. The providers hold theirs as tables; a feed is a pure
    /// function of the config, so whoever needs its messages — a churn
    /// burst's re-announcement — regenerates the same updates here, with
    /// attribute sets of their own.
    pub fn provider_feed(&self, i: usize) -> Vec<UpdateMsg> {
        feed_for(&self.cfg, &self.universe, i, &self.blueprint.providers[i])
    }

    /// The primary provider's LAN address (provider 0: see
    /// [`Blueprint`]).
    pub fn primary_ip(&self) -> Ipv4Addr {
        self.provider_ips[0]
    }

    /// Run until R1's control plane has fully converged (all feed
    /// prefixes installed, walker quiescent, BFD fast). Returns the
    /// instant of quiescence; panics if convergence takes implausibly
    /// long.
    pub fn run_until_converged(&mut self) -> SimTime {
        let budget = SimDuration::from_secs(60)
            + self.cfg.cal.fib_entry_update * (self.cfg.prefixes as u64 * 3);
        let deadline = self.world.now() + budget;
        loop {
            self.world.run_for(SimDuration::from_millis(500));
            let installed = {
                let r1 = self.world.node::<LegacyRouter>(self.r1);
                r1.fib().len() >= self.cfg.prefixes as usize && r1.is_quiescent()
            };
            if installed && self.bfd_ready() {
                // One settle round for in-flight control traffic.
                self.world.run_for(SimDuration::from_millis(500));
                let r1 = self.world.node::<LegacyRouter>(self.r1);
                if r1.fib().len() >= self.cfg.prefixes as usize
                    && r1.is_quiescent()
                    && self.bfd_ready()
                {
                    return self.world.now();
                }
            }
            assert!(
                self.world.now() < deadline,
                "control plane failed to converge within {budget} ({} of {} prefixes installed)",
                self.world.node::<LegacyRouter>(self.r1).fib().len(),
                self.cfg.prefixes
            );
        }
    }

    /// All configured BFD sessions Up with the fast negotiated
    /// detection time.
    pub fn bfd_ready(&self) -> bool {
        if !self.cfg.bfd {
            return true;
        }
        let fast = self.cfg.bfd_interval * 4; // detect_mult(3) + margin
        let primary_ip = self.primary_ip();
        match self.mode {
            Mode::Stock => {
                match self
                    .world
                    .node::<LegacyRouter>(self.r1)
                    .bfd_snapshot(primary_ip)
                {
                    Some((sc_bfd::BfdState::Up, det)) => det <= fast,
                    _ => false,
                }
            }
            Mode::Supercharged => {
                let ctrl_ok = self.controllers.iter().all(|&c| {
                    match self.world.node::<Controller>(c).bfd_snapshot(primary_ip) {
                        Some((sc_bfd::BfdState::Up, det)) => det <= fast,
                        _ => false,
                    }
                });
                let fallback_ok = !self.cfg.fallback_sessions
                    || matches!(
                        self.world
                            .node::<LegacyRouter>(self.r1)
                            .bfd_snapshot(primary_ip),
                        Some((sc_bfd::BfdState::Up, det)) if det <= fast
                    );
                ctrl_ok && fallback_ok
            }
        }
    }

    /// When the primary's failure was detected (first PeerDown at the
    /// converging party after `after`), if observed.
    pub fn detected_at(&self, after: SimTime) -> Option<SimTime> {
        let primary_ip = self.primary_ip();
        match self.mode {
            Mode::Stock => self
                .world
                .node::<LegacyRouter>(self.r1)
                .events
                .iter()
                .find_map(|(t, e)| match e {
                    sc_router::node::RouterEvent::PeerDown { peer, .. }
                        if *peer == primary_ip && *t >= after =>
                    {
                        Some(*t)
                    }
                    _ => None,
                }),
            Mode::Supercharged => self
                .world
                .node::<Controller>(self.controllers[0])
                .events
                .iter()
                .find_map(|(t, e)| match e {
                    supercharger::controller::ControllerEvent::PeerDown(ip)
                        if *ip == primary_ip && *t >= after =>
                    {
                        Some(*t)
                    }
                    _ => None,
                }),
        }
    }

    /// Flow rewrites issued by the controller (supercharged only).
    pub fn flow_rewrites(&self) -> Option<usize> {
        match self.mode {
            Mode::Stock => None,
            Mode::Supercharged => self
                .world
                .node::<Controller>(self.controllers[0])
                .events
                .iter()
                .find_map(|(_, e)| match e {
                    supercharger::controller::ControllerEvent::FailoverIssued {
                        rewrites, ..
                    } => Some(*rewrites),
                    _ => None,
                }),
        }
    }

    /// Router-side degraded time overlapping `[from, until]` — how long
    /// R1 was driving the FIB itself (every controller session down)
    /// within one measurement window. Always zero in legacy mode (no
    /// controller sessions exist to lose).
    pub fn degraded_in_window(&self, from: SimTime, until: SimTime) -> SimDuration {
        let now = self.world.now();
        self.world
            .node::<LegacyRouter>(self.r1)
            .degraded_intervals(now)
            .iter()
            .map(|&(start, end)| {
                let lo = start.max(from);
                let hi = end.min(until);
                if hi > lo {
                    hi - lo
                } else {
                    SimDuration::ZERO
                }
            })
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Flow-mod batches the controllers re-sent after a missed barrier
    /// ack, summed across replicas (supercharged only). A replica that
    /// crashed and restarted counts from its fresh process — retry
    /// counters are process state, not oracle state.
    pub fn flowmod_retries(&self) -> Option<u64> {
        match self.mode {
            Mode::Stock => None,
            Mode::Supercharged => Some(
                self.controllers
                    .iter()
                    .map(|&c| self.world.node::<Controller>(c).stats.flowmod_retries)
                    .sum(),
            ),
        }
    }
}
