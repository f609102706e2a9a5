//! Layer kernels: small drivers that call one layer's public functions
//! on inputs derived from the workload (the same prefix universe, feeds
//! and flow sample, so a 200k workload times a 200k-entry trie and a 2k
//! workload a cache-resident one) and report host ns per operation.
//!
//! Small inputs are re-run until about [`TARGET_OPS`] operations have
//! been timed, so a 2k-prefix kernel is not a 100 µs measurement.

use crate::host::{alloc_snapshot, AllocSnapshot};
use crate::metrics::Report;
use crate::spans::Spans;
use crate::workloads::Workload;
use sc_bfd::{BfdDiag, BfdPacket, BfdState};
use sc_bgp::msg::{BgpMessage, UpdateMsg};
use sc_bgp::{LocRib, PeerInfo};
use sc_invariant::{sample_flags, NetModel, ProbeSpec, TransitPolicy};
use sc_lab::topology::{IP_SOURCE, MAC_R1, MAC_SOURCE};
use sc_mrt::{MrtReader, MrtRecord, ReplaySchedule, TimeScale};
use sc_net::wire::{peek_udp_frame, udp_frame, UdpEndpoints};
use sc_net::{Frame, Ipv4Addr, Ipv4Prefix, MacAddr, PrefixTrie, SimDuration, SimTime};
use sc_openflow::msg::FlowModCommand;
use sc_openflow::{Action, FlowEntry, FlowKey, FlowMatch, FlowTable, OfMessage};
use sc_routegen::mrt::{rib_snapshot_mrt, update_trace_mrt, MrtExportConfig};
use sc_routegen::{generate_feed_for, prefix_universe, sample_flow_ips, FeedConfig};
use sc_router::{Calibration, Fib, FibOp, FibWalker, FlowCache, FlowCacheEntry};
use sc_scenarios::builder::{provider_ip, provider_mac};
use sc_scenarios::BuiltScenario;
use sc_sim::{Ctx, LinkParams, Node, NodeId, PortId, TimerToken, World};
use std::hint::black_box;
use std::time::Instant;
use supercharger::engine::PeerSpec;
use supercharger::{Engine, EngineConfig};

const TARGET_OPS: u64 = 200_000;

/// The MRT kernels build their archives in memory; past this many
/// prefixes that costs seconds and hundreds of MB for no new information
/// (100k records are already far outside any cache).
const MRT_MAX_PREFIXES: u32 = 100_000;

/// Wall nanoseconds `f` takes, and the allocations it makes.
fn timed(f: impl FnOnce()) -> (f64, AllocSnapshot) {
    let before = alloc_snapshot();
    let t = Instant::now();
    f();
    let ns = t.elapsed().as_nanos() as f64;
    (ns, alloc_snapshot().since(before))
}

/// ns per operation of a kernel whose one pass performs `ops`
/// operations: `pass` is re-run (each time on fresh state from `fresh`)
/// until [`TARGET_OPS`] operations have been timed.
fn ns_per_op<S>(ops: u64, mut fresh: impl FnMut() -> S, mut pass: impl FnMut(&mut S)) -> f64 {
    let passes = (TARGET_OPS / ops.max(1)).max(1);
    let mut ns = 0.0;
    for _ in 0..passes {
        let mut state = fresh();
        ns += timed(|| pass(&mut state)).0;
        black_box(&state);
    }
    ns / (passes * ops.max(1)) as f64
}

/// The inputs every kernel shares, derived from the workload.
struct Inputs {
    seed: u64,
    universe: Vec<Ipv4Prefix>,
    /// Two providers' full feeds over the same universe.
    feeds: [Vec<UpdateMsg>; 2],
    peers: [PeerSpec; 2],
    flow_ips: Vec<Ipv4Addr>,
    probe: Vec<u8>,
}

fn peer_info(p: &PeerSpec) -> PeerInfo {
    PeerInfo {
        peer: p.id,
        router_id: p.router_id,
        ebgp: true,
        igp_cost: 0,
    }
}

/// Run every layer kernel; `scn` is a converged world of the workload
/// (the invariant walker needs live FIBs and flow tables to read).
pub fn run(spans: &mut Spans, w: &Workload, scn: &mut BuiltScenario, out: &mut Report) {
    let n = w.base.prefixes;
    let seed = w.base.seed;

    let (inputs, _) = spans.scope("kernel.routegen", |_| {
        let (ns, _) = timed(|| {
            let universe = prefix_universe(n, seed);
            black_box(generate_feed_for(
                &FeedConfig::new(n, seed, provider_ip(0), 65_002),
                &universe,
            ));
        });
        out.value("routegen.feed_gen_ns_per_prefix", ns / n as f64);

        let universe = prefix_universe(n, seed);
        let peers = [0usize, 1].map(|i| PeerSpec {
            id: provider_ip(i),
            mac: provider_mac(i),
            switch_port: 2 + i as u16,
            local_pref: 200 - 100 * i as u32,
            router_id: provider_ip(i),
        });
        let feeds = [0usize, 1].map(|i| {
            generate_feed_for(
                &FeedConfig::new(n, seed, provider_ip(i), 65_002 + i as u16),
                &universe,
            )
        });
        let flow_ips = sample_flow_ips(&universe, w.base.flows, seed);
        let probe = udp_frame(
            UdpEndpoints {
                src_mac: MAC_SOURCE,
                dst_mac: MacAddr::virtual_mac(0),
                src_ip: IP_SOURCE,
                dst_ip: flow_ips[0],
                src_port: sc_traffic::PROBE_SRC_PORT,
                dst_port: sc_net::wire::udp::port::PROBE,
            },
            64,
            &[0x5c; 22],
        );
        Inputs {
            seed,
            universe,
            feeds,
            peers,
            flow_ips,
            probe,
        }
    });

    spans.scope("kernel.net", |_| net(&inputs, out));
    spans.scope("kernel.bgp", |_| bgp(&inputs, out));
    spans.scope("kernel.bfd", |_| bfd(out));
    spans.scope("kernel.router", |_| router(&inputs, out));
    spans.scope("kernel.core", |_| core(&inputs, out));
    spans.scope("kernel.openflow", |_| openflow(&inputs, out));
    spans.scope("kernel.mrt", |_| mrt(&inputs, out));
    spans.scope("kernel.invariant", |_| invariant(scn, out));
    spans.scope("kernel.sim", |_| sim(seed, out));
}

fn net(inp: &Inputs, out: &mut Report) {
    let n = inp.universe.len() as u64;
    let full = || -> PrefixTrie<u32> {
        inp.universe
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, i as u32))
            .collect()
    };
    out.value(
        "net.trie_insert_ns",
        ns_per_op(n, PrefixTrie::<u32>::new, |t| {
            for (i, p) in inp.universe.iter().enumerate() {
                t.insert(*p, i as u32);
            }
        }),
    );
    let hosts: Vec<Ipv4Addr> = inp.universe.iter().map(|p| p.sample_host()).collect();
    out.value(
        "net.trie_lookup_ns",
        ns_per_op(n, full, |t| {
            let mut acc = 0u64;
            for ip in &hosts {
                if let Some((_, v)) = t.lookup(*ip) {
                    acc += *v as u64;
                }
            }
            black_box(acc);
        }),
    );
    out.value(
        "net.trie_remove_ns",
        ns_per_op(n, full, |t| {
            for p in &inp.universe {
                black_box(t.remove(*p));
            }
        }),
    );

    let packets = TARGET_OPS;
    out.value(
        "net.frame_clone_ns",
        ns_per_op(
            packets,
            || Frame::from(inp.probe.clone()),
            |f| {
                for _ in 0..packets {
                    black_box(f.clone());
                }
            },
        ),
    );
    // The per-packet frame path, as the source and R1 drive it: stamp the
    // template (copy-on-write, its last copy is still in flight), clone
    // the handle onto the wire, rewrite the clone's MAC at the router
    // (copy-on-write again), drop it at the sink. Retired buffers come
    // back through the frame pool, so after a warm-up this allocates
    // nothing.
    let mut template = Frame::new(inp.probe.clone());
    let mut frame_path = |packets: u64| {
        for seq in 0..packets {
            let last = template.len() - 1;
            template.make_mut()[last] = seq as u8;
            let mut in_flight = template.clone();
            in_flight.make_mut()[0] ^= 1;
            black_box(&in_flight);
        }
    };
    frame_path(100);
    let (_, allocs) = timed(|| frame_path(packets));
    out.value(
        "net.frame_allocs_per_pkt",
        allocs.count as f64 / packets as f64,
    );
    out.value(
        "net.udp_peek_ns",
        ns_per_op(
            packets,
            || (),
            |_| {
                for _ in 0..packets {
                    black_box(peek_udp_frame(black_box(&inp.probe)).is_ok());
                }
            },
        ),
    );
}

fn bgp(inp: &Inputs, out: &mut Report) {
    let n = inp.universe.len() as u64;
    let msgs: Vec<BgpMessage> = inp.feeds[0]
        .iter()
        .cloned()
        .map(BgpMessage::Update)
        .collect();
    let mut buf = Vec::with_capacity(4096);
    out.value(
        "bgp.update_encode_ns_per_prefix",
        ns_per_op(
            n,
            || (),
            |_| {
                for m in &msgs {
                    buf.clear();
                    m.encode_into(&mut buf);
                    black_box(buf.len());
                }
            },
        ),
    );
    let wire: Vec<Vec<u8>> = msgs.iter().map(BgpMessage::encode).collect();
    let mut allocs = AllocSnapshot::default();
    out.value(
        "bgp.update_decode_ns_per_prefix",
        ns_per_op(
            n,
            || (),
            |_| {
                let (_, a) = timed(|| {
                    for bytes in &wire {
                        black_box(BgpMessage::decode(bytes).expect("own encoding decodes"));
                    }
                });
                allocs = a;
            },
        ),
    );
    out.value(
        "bgp.decode_allocs_per_update",
        allocs.count as f64 / wire.len() as f64,
    );

    let load = |rib: &mut LocRib| {
        for (feed, peer) in inp.feeds.iter().zip(&inp.peers) {
            for u in feed {
                let attrs = u.attrs.as_ref().expect("feeds only announce");
                rib.apply_update_batch(attrs, &u.nlri, peer_info(peer), peer.local_pref, |c| {
                    black_box(c.best_changed());
                });
            }
        }
    };
    out.value(
        "bgp.locrib_apply_ns_per_prefix",
        ns_per_op(2 * n, LocRib::new, load),
    );
    let loaded = || {
        let mut rib = LocRib::new();
        load(&mut rib);
        rib
    };
    out.value(
        "bgp.locrib_withdraw_ns_per_prefix",
        ns_per_op(n, loaded, |rib| {
            for p in &inp.universe {
                black_box(rib.withdraw(*p, inp.peers[0].id));
            }
        }),
    );
}

fn bfd(out: &mut Report) {
    let pkt = BfdPacket {
        diag: BfdDiag::None,
        state: BfdState::Up,
        poll: false,
        final_bit: false,
        detect_mult: 3,
        my_discr: 1,
        your_discr: 2,
        desired_min_tx_us: 30_000,
        required_min_rx_us: 30_000,
    };
    out.value(
        "bfd.packet_roundtrip_ns",
        ns_per_op(
            TARGET_OPS,
            || (),
            |_| {
                for _ in 0..TARGET_OPS {
                    let bytes = black_box(&pkt).to_bytes();
                    black_box(BfdPacket::parse(&bytes).expect("own encoding parses"));
                }
            },
        ),
    );
}

fn router(inp: &Inputs, out: &mut Report) {
    let n = inp.universe.len() as u64;
    let next_hop = inp.peers[0].id;
    let mut applied = Vec::new();
    out.value(
        "router.fib_apply_ns_per_op",
        ns_per_op(
            n,
            || (FibWalker::new(Calibration::instant(), inp.seed), Fib::new()),
            |(walker, fib)| {
                let ops = inp
                    .universe
                    .iter()
                    .map(|&prefix| FibOp::Set { prefix, next_hop });
                walker.enqueue_burst(SimTime::ZERO, ops, false);
                walker.apply_batch(fib, SimTime::ZERO, &mut applied);
                assert_eq!(applied.len() as u64, n, "instant hardware drains the burst");
            },
        ),
    );

    // A cache the size the workload's R1 holds: one entry per flow.
    let cache = || {
        let mut c = FlowCache::new();
        for &dst in &inp.flow_ips {
            c.insert(
                dst,
                FlowCacheEntry {
                    next_hop,
                    iface: 0,
                    dst_mac: inp.peers[0].mac,
                    expires: SimTime::MAX,
                },
            );
        }
        c
    };
    let flows = inp.flow_ips.len() as u64;
    let rounds = TARGET_OPS / flows;
    out.value(
        "router.flowcache_lookup_ns",
        ns_per_op(rounds * flows, cache, |c| {
            for _ in 0..rounds {
                for &dst in &inp.flow_ips {
                    black_box(c.lookup(dst, SimTime::ZERO));
                }
            }
        }),
    );
    // The common FIB change touches a prefix no cached flow is under:
    // the invalidation scans the cache and removes nothing.
    let cold: Vec<Ipv4Prefix> = inp
        .universe
        .iter()
        .filter(|p| !inp.flow_ips.iter().any(|ip| p.contains(*ip)))
        .take(10_000)
        .copied()
        .collect();
    out.value(
        "router.flowcache_invalidate_ns",
        ns_per_op(cold.len() as u64, cache, |c| {
            for p in &cold {
                c.invalidate_prefix(*p);
            }
            assert_eq!(c.len() as u64, flows, "cold prefixes evict nothing");
        }),
    );
}

fn engine(inp: &Inputs) -> Engine {
    Engine::new(EngineConfig::new(
        "10.0.200.0/24".parse().expect("literal prefix"),
        inp.peers.to_vec(),
    ))
}

fn core(inp: &Inputs, out: &mut Report) {
    let n = inp.universe.len() as u64;
    let load = |e: &mut Engine| {
        for (feed, peer) in inp.feeds.iter().zip(&inp.peers) {
            for u in feed {
                black_box(e.process_update(peer.id, u));
            }
        }
    };
    out.value(
        "core.engine_update_ns_per_prefix",
        ns_per_op(2 * n, || engine(inp), load),
    );

    let mut e = engine(inp);
    load(&mut e);
    out.value("core.groups", e.groups().len() as f64);
    let rounds = 200;
    let mut ns = 0.0;
    for _ in 0..rounds {
        ns += timed(|| {
            black_box(e.failover_plan(inp.peers[0].id));
        })
        .0;
        black_box(e.peer_up(inp.peers[0].id));
    }
    out.value("core.failover_plan_ns", ns / rounds as f64);
    out.value(
        "core.export_ns_per_prefix",
        ns_per_op(
            n,
            || (),
            |_| {
                let actions = e.export_announcements();
                black_box(Engine::pack_for_router(&actions));
            },
        ),
    );
}

fn openflow(inp: &Inputs, out: &mut Report) {
    // A supercharged switch table: one VMAC rule per backup-group of an
    // IXP-sized deployment (the paper counts 90 for 10 peers).
    let table = || {
        let mut t = FlowTable::new();
        for i in 0..90u32 {
            t.add(FlowEntry {
                priority: 100,
                cookie: 0x5c,
                matcher: FlowMatch::dst_mac(MacAddr::virtual_mac(i)),
                actions: vec![
                    Action::SetDstMac(inp.peers[0].mac),
                    Action::Output(inp.peers[0].switch_port),
                ],
                stats: Default::default(),
            });
        }
        t
    };
    out.value(
        "openflow.table_lookup_ns",
        ns_per_op(TARGET_OPS, table, |t| {
            for _ in 0..TARGET_OPS {
                let key = FlowKey::extract(4, black_box(&inp.probe)).expect("probe parses");
                black_box(t.lookup(&key, inp.probe.len()).is_some());
            }
        }),
    );
    let flow_mod = OfMessage::FlowMod {
        command: FlowModCommand::Modify,
        priority: 100,
        cookie: 0x5c,
        matcher: FlowMatch::dst_mac(MacAddr::virtual_mac(7)),
        actions: vec![
            Action::SetDstMac(inp.peers[1].mac),
            Action::Output(inp.peers[1].switch_port),
        ],
    };
    out.value(
        "openflow.flowmod_codec_ns",
        ns_per_op(
            TARGET_OPS,
            || (),
            |_| {
                for xid in 0..TARGET_OPS as u32 {
                    let bytes = black_box(&flow_mod).encode(xid);
                    black_box(OfMessage::decode(&bytes).expect("own encoding decodes"));
                }
            },
        ),
    );
}

fn mrt(inp: &Inputs, out: &mut Report) {
    let prefixes = (inp.universe.len() as u32).min(MRT_MAX_PREFIXES);
    let cfg = MrtExportConfig {
        prefixes,
        seed: inp.seed,
        // One withdraw + re-announce burst of 8 prefixes per 8 prefixes
        // of table: the trace scales with the workload.
        bursts: (prefixes / 8).max(1),
        ..MrtExportConfig::fixture()
    };
    let snapshot = rib_snapshot_mrt(&cfg);
    let records = MrtReader::new(&snapshot).count() as u64;
    out.value(
        "mrt.decode_ns_per_record",
        ns_per_op(
            records,
            || (),
            |_| {
                for raw in MrtReader::new(&snapshot) {
                    let raw = raw.expect("own archive reads");
                    black_box(MrtRecord::decode(&raw).expect("own archive decodes"));
                }
            },
        ),
    );
    let trace = update_trace_mrt(&cfg);
    let updates = ReplaySchedule::compile(&trace, TimeScale::REAL)
        .expect("own trace compiles")
        .events
        .len() as u64;
    out.value(
        "mrt.schedule_compile_ns_per_update",
        ns_per_op(
            updates,
            || (),
            |_| {
                black_box(ReplaySchedule::compile(&trace, TimeScale::REAL).expect("compiles"));
            },
        ),
    );
}

fn invariant(scn: &mut BuiltScenario, out: &mut Report) {
    // The model and probe the suite runner hands the invariant engine.
    let model = NetModel {
        routers: std::iter::once(scn.r1)
            .chain(scn.providers.iter().copied())
            .chain(scn.forwarders.iter().copied())
            .collect(),
        switches: vec![scn.switch],
        source: scn.source,
        sink: scn.sink,
    };
    let probe = ProbeSpec {
        src_mac: MAC_SOURCE,
        src_ip: IP_SOURCE,
        gateway_mac: MAC_R1,
        udp_src: sc_traffic::PROBE_SRC_PORT,
        udp_dst: sc_net::wire::udp::port::PROBE,
    };
    let policy = TransitPolicy { rules: Vec::new() };
    // A walk that ends in a drop is shorter than one that delivers, so
    // time only a world in which every flow delivers. A supercharged
    // world with a small table is not there yet when
    // `run_until_converged` returns (seen at 200 and 400 prefixes: one
    // flow still blackholed 300 ms later, none a few seconds on), so let
    // the idle world run on until the walker finds nothing.
    let mut waited = SimDuration::ZERO;
    while sample_flags(&scn.world, &model, probe, &policy, &scn.flow_ips) != [false; 3] {
        assert!(
            waited < SimDuration::from_secs(30),
            "the converged world still violates an invariant after 30 s idle"
        );
        scn.world.run_for(SimDuration::from_millis(500));
        waited += SimDuration::from_millis(500);
    }
    let flows = scn.flow_ips.len() as u64;
    let rounds = (TARGET_OPS / 10 / flows).max(1);
    out.value(
        "invariant.walk_ns_per_flow",
        ns_per_op(
            rounds * flows,
            || (),
            |_| {
                for _ in 0..rounds {
                    let flags = sample_flags(&scn.world, &model, probe, &policy, &scn.flow_ips);
                    assert_eq!(flags, [false; 3], "every timed walk delivers");
                }
            },
        ),
    );
}

/// Bounces every frame straight back: the cheapest possible event.
struct Echo;

impl Node for Echo {
    fn name(&self) -> &str {
        "echo"
    }
    fn on_frame(&mut self, ctx: &mut Ctx, port: PortId, frame: Frame) {
        ctx.send_frame(port, frame);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, _token: TimerToken) {
        ctx.send_frame(PortId(0), vec![0u8; 64]);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Keeps `timers` periodic timers armed, each with its own period, so
/// the queue stays deep and firing order keeps interleaving.
struct Ticker {
    timers: u64,
}

impl Ticker {
    fn period(token: TimerToken) -> SimDuration {
        SimDuration::from_micros(500 + 7 * (token.0 % 997))
    }
}

impl Node for Ticker {
    fn name(&self) -> &str {
        "ticker"
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        for t in 0..self.timers {
            let token = TimerToken(ctx.node_id().0 as u64 * self.timers + t);
            ctx.set_timer_after(Ticker::period(token), token);
        }
    }
    fn on_frame(&mut self, _ctx: &mut Ctx, _port: PortId, _frame: Frame) {}
    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
        ctx.set_timer_after(Ticker::period(token), token);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Run `world` until about a million events have been processed;
/// returns ns per event.
fn ns_per_event(world: &mut World) -> f64 {
    const EVENTS: u64 = 1_000_000;
    let (ns, _) = timed(|| {
        while world.stats().events_processed < EVENTS {
            world.run_for(SimDuration::from_millis(100));
        }
    });
    ns / world.stats().events_processed as f64
}

fn sim(seed: u64, out: &mut Report) {
    let mut world = World::new(seed);
    let a = world.add_node(Echo);
    let b = world.add_node(Echo);
    world.connect(a, b, LinkParams::default());
    world.wake_node(SimTime::ZERO, a, TimerToken(0));
    out.value("sim.bare_event_ns", ns_per_event(&mut world));

    let mut world = World::new(seed);
    let nodes: Vec<NodeId> = (0..64)
        .map(|_| world.add_node(Ticker { timers: 160 }))
        .collect();
    let ns = ns_per_event(&mut world);
    assert!(
        world.pending_events() >= 10_000,
        "{} nodes keep the queue deep",
        nodes.len()
    );
    out.value("sim.timer_dense_event_ns", ns);
}
