//! The Fig. 4 convergence lab as code.
//!
//! ```text
//!                      ┌────────────┐
//!   FPGA source ───────┤            ├────── R1 (Nexus-7k model)
//!                      │  HP E3800  │
//!   controller(s) ─────┤  (OpenFlow │────── R2 (provider $)──── sink
//!                      │   switch)  │────── R3 (provider $$)─── sink
//!                      └────────────┘
//! ```
//!
//! One builder produces both halves of Fig. 5:
//! * [`Mode::Stock`] — R1 peers R2/R3 directly (BFD on the R2 session),
//!   converging via its flat-FIB walk;
//! * [`Mode::Supercharged`] — the controller(s) interpose on the BGP
//!   sessions, provision VNH/VMAC state, and converge the data plane via
//!   Listing 2.
//!
//! Addressing plan (all MACs locally administered):
//!
//! | node         | IP            | MAC                |
//! |--------------|---------------|--------------------|
//! | R1           | 10.0.0.1      | 02:10:00:00:00:01  |
//! | R2           | 10.0.0.2      | 02:10:00:00:00:02  |
//! | R3           | 10.0.0.3      | 02:10:00:00:00:03  |
//! | controller i | 10.0.0.10+i   | 02:cc:00:00:00:0i  |
//! | switch (mgmt)| 10.0.0.20     | 02:ee:00:00:00:01  |
//! | source       | 10.0.0.100    | 02:aa:00:00:00:01  |
//! | sink         | 192.168.x.100 | 02:bb:00:00:00:01  |
//! | VNH pool     | 10.0.200.0/24 | 02:5c:… (VMACs)    |

use sc_bfd::BfdConfig;
use sc_bgp::msg::UpdateMsg;
use sc_net::{Ipv4Addr, Ipv4Prefix, MacAddr, SimDuration, SimTime};
use sc_openflow::{OfSwitch, SwitchConfig, TableMiss};
use sc_routegen::{generate_feed_for, prefix_universe, sample_flow_ips, FeedConfig};
use sc_router::{Calibration, Interface, LegacyRouter, PeerConfig, RouterConfig, StaticRoute};
use sc_sim::{LinkId, LinkParams, NodeId, PortId, TimerToken, World};
use sc_traffic::{SinkConfig, SourceConfig, TrafficSink, TrafficSource};
use supercharger::engine::PeerSpec;
use supercharger::{Controller, ControllerConfig, PeerLink, RouterLink, SwitchLink};

pub const IP_R1: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
pub const IP_R2: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
pub const IP_R3: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
pub const IP_SWITCH: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 20);
pub const IP_SOURCE: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

pub const MAC_R1: MacAddr = MacAddr([0x02, 0x10, 0, 0, 0, 1]);
pub const MAC_R2: MacAddr = MacAddr([0x02, 0x10, 0, 0, 0, 2]);
pub const MAC_R3: MacAddr = MacAddr([0x02, 0x10, 0, 0, 0, 3]);
pub const MAC_SWITCH: MacAddr = MacAddr([0x02, 0xee, 0, 0, 0, 1]);
pub const MAC_SOURCE: MacAddr = MacAddr([0x02, 0xaa, 0, 0, 0, 1]);
pub const MAC_SINK: MacAddr = MacAddr([0x02, 0xbb, 0, 0, 0, 1]);

pub fn controller_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 10 + i as u8)
}

pub fn controller_mac(i: usize) -> MacAddr {
    MacAddr([0x02, 0xcc, 0, 0, 0, i as u8 + 1])
}

fn lan() -> Ipv4Prefix {
    "10.0.0.0/16".parse().unwrap()
}

fn vnh_pool() -> Ipv4Prefix {
    "10.0.200.0/24".parse().unwrap()
}

/// Which half of Fig. 5 to build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// R1 peers its providers directly; convergence = flat-FIB walk.
    Stock,
    /// The controller(s) interpose; convergence = Listing 2.
    Supercharged,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::Stock => "stock",
            Mode::Supercharged => "supercharged",
        }
    }
}

/// Full lab configuration.
#[derive(Clone, Debug)]
pub struct LabConfig {
    pub mode: Mode,
    /// Number of prefixes both providers advertise (Fig. 5's x-axis).
    pub prefixes: u32,
    /// Number of monitored flows (the paper: 100).
    pub flows: usize,
    /// Seed for the feed, flow sampling, and all simulation randomness.
    pub seed: u64,
    /// Probe rate per flow; `None` auto-scales so big stock experiments
    /// stay tractable while keeping relative measurement error < 0.1%
    /// (see `suggested_flow_rate`).
    pub rate_pps: Option<u64>,
    /// Router hardware model.
    pub cal: Calibration,
    /// Run BFD on the R2 sessions (the paper does, in both modes).
    pub bfd: bool,
    /// BFD timing (interval; detect-mult fixed at 3).
    pub bfd_interval: SimDuration,
    /// Number of controller replicas (supercharged mode).
    pub controllers: usize,
    /// Controller compute/REST latency before FLOW_MODs leave.
    pub reaction_delay: SimDuration,
    /// React to switch PORT_STATUS carrier loss in addition to BFD
    /// (ablation beyond the paper; detection drops from ~90ms to the
    /// wire latency).
    pub portstatus_failover: bool,
    /// Frame-loss probability on the controller↔switch links (failure
    /// injection: the reliable channel must repair the control plane).
    pub control_loss: f64,
    /// Keep a bounded event trace for debugging.
    pub trace: bool,
    /// Which event scheduler the world runs on. Both deliver the exact
    /// `(time, seq)` order, so results are identical; the reference
    /// heap exists for differential testing against the timer wheel.
    pub scheduler: sc_sim::SchedulerKind,
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig {
            mode: Mode::Supercharged,
            prefixes: 1_000,
            flows: 100,
            seed: 42,
            rate_pps: None,
            cal: Calibration::nexus7k(),
            bfd: true,
            bfd_interval: SimDuration::from_millis(30),
            controllers: 1,
            reaction_delay: SimDuration::from_millis(3),
            portstatus_failover: false,
            control_loss: 0.0,
            trace: false,
            scheduler: sc_sim::SchedulerKind::default(),
        }
    }
}

/// The expected convergence budget for sizing measurement windows and
/// probe rates.
pub fn expected_convergence(cfg: &LabConfig) -> SimDuration {
    crate::harness::convergence_budget(cfg.mode, &cfg.cal, cfg.prefixes, cfg.control_loss)
}

/// Probe rate per flow: full paper rate when affordable, scaled down for
/// the long stock runs so the whole sweep stays tractable (see
/// [`crate::harness::probe_rate`]).
pub fn suggested_flow_rate(cfg: &LabConfig) -> u64 {
    crate::harness::probe_rate(cfg.rate_pps, expected_convergence(cfg), cfg.flows)
}

/// The built lab, ready to run.
pub struct ConvergenceLab {
    pub world: World,
    pub cfg: LabConfig,
    pub switch: NodeId,
    pub r1: NodeId,
    pub r2: NodeId,
    pub r3: NodeId,
    pub controllers: Vec<NodeId>,
    /// Switch ↔ controller links, one per replica (replica-divergence
    /// scripts cut or delay these).
    pub controller_links: Vec<LinkId>,
    pub source: NodeId,
    pub sink: NodeId,
    /// The link the experiment cuts (R2 ↔ switch).
    pub r2_link: LinkId,
    /// R3's switch link (scenario scripts can target the backup too).
    pub r3_link: LinkId,
    /// The provider → sink delivery links, in (R2, R3) order.
    pub sink_links: [LinkId; 2],
    /// Switch-side port numbers (needed by flow rules / diagnostics).
    pub sw_port_r1: PortId,
    pub sw_port_r2: PortId,
    pub sw_port_r3: PortId,
    /// The monitored flows' destination addresses.
    pub flow_ips: Vec<Ipv4Addr>,
    /// The advertised prefix universe.
    pub universe: Vec<Ipv4Prefix>,
}

/// The feed provider `provider` (0 = R2, 1 = R3) originates over
/// `universe`. A pure function of its arguments: scenario drivers that
/// re-announce during churn events regenerate it here, so the knowledge
/// of how it was generated stays in one place and no copy is kept.
pub fn provider_feed(
    prefixes: u32,
    seed: u64,
    universe: &[Ipv4Prefix],
    provider: usize,
) -> Vec<UpdateMsg> {
    let (ip, asn) = [(IP_R2, 65002), (IP_R3, 65003)][provider];
    generate_feed_for(&FeedConfig::new(prefixes, seed, ip, asn), universe)
}

impl ConvergenceLab {
    /// Build the full topology for `cfg`.
    pub fn build(cfg: LabConfig) -> ConvergenceLab {
        assert!(cfg.flows >= 1);
        assert!(cfg.prefixes >= 1);
        if cfg.mode == Mode::Stock {
            assert_eq!(
                cfg.controllers, 1,
                "controller count is a supercharged knob"
            );
        }
        let universe = prefix_universe(cfg.prefixes, cfg.seed);
        let flow_ips = sample_flow_ips(&universe, cfg.flows, cfg.seed);

        let mut world = World::with_scheduler(cfg.seed, cfg.scheduler);
        if cfg.trace {
            world.enable_trace(1_000_000);
            world.enable_metrics();
        }
        let lanp = LinkParams::gigabit(SimDuration::from_micros(10));

        // --- nodes ---
        let switch = world.add_node(OfSwitch::new(SwitchConfig {
            table_miss: TableMiss::L2Learn,
            ..SwitchConfig::paper_defaults("hp-e3800")
        }));
        let r1 = world.add_node(LegacyRouter::new(RouterConfig {
            name: "r1-nexus7k".into(),
            asn: 65001,
            router_id: Ipv4Addr::new(1, 1, 1, 1),
            cal: cfg.cal,
        }));
        let r2 = world.add_node(LegacyRouter::new(RouterConfig {
            name: "r2-provider1".into(),
            asn: 65002,
            router_id: Ipv4Addr::new(2, 2, 2, 2),
            cal: Calibration::instant(),
        }));
        let r3 = world.add_node(LegacyRouter::new(RouterConfig {
            name: "r3-provider2".into(),
            asn: 65003,
            router_id: Ipv4Addr::new(3, 3, 3, 3),
            cal: Calibration::instant(),
        }));
        let source = world.add_node(TrafficSource::new(
            SourceConfig::paper(
                "fpga-source",
                MAC_SOURCE,
                IP_SOURCE,
                MAC_R1,
                flow_ips.clone(),
                SimTime::MAX - SimDuration::from_secs(1), // re-windowed later
                SimTime::MAX,
            ),
            PortId(0),
        ));
        let sink = world.add_node(TrafficSink::new(SinkConfig::paper(
            "fpga-sink",
            flow_ips.clone(),
        )));

        // --- wiring (connection order fixes each node's PortId(0)) ---
        let (_, sw_port_r1, _r1_port) = world.connect(switch, r1, lanp);
        let (r2_link, sw_port_r2, _r2_port) = world.connect(switch, r2, lanp);
        let (r3_link, sw_port_r3, _r3_port) = world.connect(switch, r3, lanp);
        let (_, sw_port_src, _src_port) = world.connect(switch, source, lanp);
        let mut sw_ctrl_ports = Vec::new();
        let controllers_n = if cfg.mode == Mode::Supercharged {
            cfg.controllers
        } else {
            0
        };
        let mut ctrl_port_on_switch = Vec::new();
        for _ in 0..controllers_n {
            // Controller nodes are created after wiring (they need their
            // port id, which is always 0 — their only link); reserve the
            // switch-side connection by connecting to a placeholder is
            // not possible, so create the controller node first instead.
            ctrl_port_on_switch.push(());
        }
        // (R2, R3) → sink links.
        let (r2_sink_link, _r2_sink_port, _) = world.connect(r2, sink, lanp);
        let (r3_sink_link, _r3_sink_port, _) = world.connect(r3, sink, lanp);

        // --- controllers (supercharged only) ---
        let peer_specs = vec![
            PeerSpec {
                id: IP_R2,
                mac: MAC_R2,
                switch_port: sw_port_r2.0 as u16,
                local_pref: 200, // prefer R2 ($), the paper's policy
                router_id: Ipv4Addr::new(2, 2, 2, 2),
            },
            PeerSpec {
                id: IP_R3,
                mac: MAC_R3,
                switch_port: sw_port_r3.0 as u16,
                local_pref: 100,
                router_id: Ipv4Addr::new(3, 3, 3, 3),
            },
        ];
        let mut controllers = Vec::new();
        let mut controller_links = Vec::new();
        for ci in 0..controllers_n {
            let ctrl_cfg = ControllerConfig {
                name: format!("supercharger-{ci}"),
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
                    hold_time: SimDuration::from_secs(90),
                },
                peers: vec![
                    PeerLink {
                        spec: peer_specs[0],
                        local_port: (41000 + ci * 100) as u16,
                        remote_port: 179,
                        hold_time: SimDuration::from_secs(90),
                        bfd: cfg.bfd.then(|| BfdConfig {
                            local_discr: (100 + ci * 10) as u32,
                            desired_min_tx: cfg.bfd_interval,
                            required_min_rx: cfg.bfd_interval,
                            detect_mult: 3,
                        }),
                    },
                    PeerLink {
                        spec: peer_specs[1],
                        local_port: (41001 + ci * 100) as u16,
                        remote_port: 179,
                        hold_time: SimDuration::from_secs(90),
                        bfd: None,
                    },
                ],
                switch: SwitchLink {
                    switch_ip: IP_SWITCH,
                    switch_mac: MAC_SWITCH,
                    local_port: (45000 + ci) as u16,
                },
                reaction_delay: cfg.reaction_delay,
                rule_grace: SimDuration::from_secs(600),
                portstatus_failover: cfg.portstatus_failover,
                seed: cfg.seed,
                echo_interval: None,
                ack_timeout: SimDuration::from_millis(50),
                max_flowmod_attempts: 5,
            };
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
            sw.register_data_port(sw_port_r2);
            sw.register_data_port(sw_port_r3);
            sw.register_data_port(sw_port_src);
            for (ci, p) in sw_ctrl_ports.iter().enumerate() {
                sw.register_data_port(*p);
                sw.attach_controller(sc_sim::ChannelPort::listen(
                    sc_net::channel::ChannelConfig::default(),
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
            match cfg.mode {
                Mode::Stock => {
                    r1n.add_peer(PeerConfig {
                        local_pref: 200,
                        local_port: 40000,
                        remote_port: 179,
                        bfd: cfg.bfd.then_some(BfdConfig {
                            local_discr: 12,
                            desired_min_tx: cfg.bfd_interval,
                            required_min_rx: cfg.bfd_interval,
                            detect_mult: 3,
                        }),
                        ..PeerConfig::ebgp(IP_R2, MAC_R2, true)
                    });
                    r1n.add_peer(PeerConfig {
                        local_pref: 100,
                        local_port: 40001,
                        remote_port: 179,
                        ..PeerConfig::ebgp(IP_R3, MAC_R3, true)
                    });
                }
                Mode::Supercharged => {
                    for ci in 0..controllers_n {
                        r1n.add_peer(PeerConfig {
                            local_port: (40000 + ci) as u16,
                            remote_port: 179,
                            ..PeerConfig::ebgp(controller_ip(ci), controller_mac(ci), true)
                        });
                    }
                }
            }
        }

        // --- R2 / R3 (providers) ---
        let feed_r2 = provider_feed(cfg.prefixes, cfg.seed, &universe, 0);
        let feed_r3 = provider_feed(cfg.prefixes, cfg.seed, &universe, 1);
        for (node, ip, mac, sink_net, sink_ip, mut feed, discr_base) in [
            (
                r2,
                IP_R2,
                MAC_R2,
                "192.168.2.0/24",
                Ipv4Addr::new(192, 168, 2, 100),
                feed_r2,
                20u32,
            ),
            (
                r3,
                IP_R3,
                MAC_R3,
                "192.168.3.0/24",
                Ipv4Addr::new(192, 168, 3, 100),
                feed_r3,
                30u32,
            ),
        ] {
            let rn = world.node_mut::<LegacyRouter>(node);
            rn.add_interface(Interface {
                port: PortId(0),
                ip,
                mac,
                subnet: lan(),
            });
            let sink_subnet: Ipv4Prefix = sink_net.parse().unwrap();
            rn.add_interface(Interface {
                port: PortId(1),
                ip: Ipv4Addr::from(sink_subnet.raw_bits() + 1),
                mac: MacAddr([0x02, 0x20, 0, 0, 0, mac.octets()[5]]),
                subnet: sink_subnet,
            });
            rn.add_static_arp(sink_ip, MAC_SINK);
            rn.add_static_route(StaticRoute {
                prefix: Ipv4Prefix::DEFAULT,
                next_hop: sink_ip,
            });
            // BGP sessions: to R1 directly (stock) or to each controller
            // (supercharged).
            match cfg.mode {
                Mode::Stock => {
                    let is_r2 = ip == IP_R2;
                    rn.add_peer(PeerConfig {
                        local_port: 179,
                        remote_port: if is_r2 { 40000 } else { 40001 },
                        bfd: (cfg.bfd && is_r2).then_some(BfdConfig {
                            local_discr: discr_base,
                            desired_min_tx: cfg.bfd_interval,
                            required_min_rx: cfg.bfd_interval,
                            detect_mult: 3,
                        }),
                        originate: feed,
                        ..PeerConfig::ebgp(IP_R1, MAC_R1, false)
                    });
                }
                Mode::Supercharged => {
                    let is_r2 = ip == IP_R2;
                    for ci in 0..controllers_n {
                        rn.add_peer(PeerConfig {
                            local_port: 179,
                            remote_port: (41000 + ci * 100 + if is_r2 { 0 } else { 1 }) as u16,
                            bfd: (cfg.bfd && is_r2).then(|| BfdConfig {
                                local_discr: discr_base + ci as u32,
                                desired_min_tx: cfg.bfd_interval,
                                required_min_rx: cfg.bfd_interval,
                                detect_mult: 3,
                            }),
                            // The last session takes the feed itself.
                            originate: if ci + 1 == controllers_n {
                                std::mem::take(&mut feed)
                            } else {
                                feed.clone()
                            },
                            ..PeerConfig::ebgp(controller_ip(ci), controller_mac(ci), false)
                        });
                    }
                }
            }
        }

        ConvergenceLab {
            world,
            cfg,
            switch,
            r1,
            r2,
            r3,
            controllers,
            controller_links,
            source,
            sink,
            r2_link,
            r3_link,
            sink_links: [r2_sink_link, r3_sink_link],
            sw_port_r1,
            sw_port_r2,
            sw_port_r3,
            flow_ips,
            universe,
        }
    }

    /// Run until R1's control plane has fully converged (all feed
    /// prefixes installed, walker quiescent). Returns the instant of
    /// quiescence. Panics if convergence takes implausibly long.
    pub fn run_until_converged(&mut self) -> SimTime {
        // Generous budget: feed transfer + (possibly two) full walks.
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

    /// All configured BFD sessions Up with the *fast* negotiated
    /// detection time (a long-running lab never injects failures while
    /// BFD is still in its slow bootstrap cadence).
    pub fn bfd_ready(&self) -> bool {
        if !self.cfg.bfd {
            return true;
        }
        let fast = self.cfg.bfd_interval * 4; // detect_mult(3) + margin
        match self.cfg.mode {
            Mode::Stock => match self.world.node::<LegacyRouter>(self.r1).bfd_snapshot(IP_R2) {
                Some((sc_bfd::BfdState::Up, det)) => det <= fast,
                _ => false,
            },
            Mode::Supercharged => self.controllers.iter().all(|&c| {
                match self.world.node::<Controller>(c).bfd_snapshot(IP_R2) {
                    Some((sc_bfd::BfdState::Up, det)) => det <= fast,
                    _ => false,
                }
            }),
        }
    }
}
