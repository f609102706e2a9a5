//! The control-plane churn bench world used by `sc-bench perf --churn`.
//!
//! Topology: R1 ← K provider routers, one point-to-point link each.
//! Every provider originates a full feed over the shared prefix
//! universe; the primary (highest LOCAL_PREF) provider then runs a long
//! pre-scheduled script of withdraw/re-announce micro-bursts. The world
//! therefore exercises exactly the control-plane fast path this
//! workspace optimizes:
//!
//! * **timer-dense kernel** — per-session BFD at millisecond intervals,
//!   channel retransmission timers, and thousands of pre-scheduled
//!   control events keep the event queue deep, which is where the
//!   timer wheel earns its keep over the reference heap;
//! * **BGP encode under load** — every burst re-encodes UPDATEs over
//!   live sessions (the zero-alloc `encode_into` path, or the legacy
//!   fresh-`Vec` path when `legacy_encode` reconstructs the
//!   pre-refactor baseline);
//! * **bulk RIB/FIB application** — each withdraw/re-announce flips the
//!   best route for a slice of the table, driving `LocRib` batch
//!   updates and zero-cost `FibWalker` batch drains.
//!
//! Every quantity is a pure function of the parameters; the event
//! stream is identical across schedulers and encode modes (regression-
//! tested), so `events/s` comparisons measure kernel cost alone.

use sc_bfd::BfdConfig;
use sc_bgp::msg::UpdateMsg;
use sc_net::{Ipv4Addr, Ipv4Prefix, MacAddr, SimDuration, SimTime};
use sc_routegen::{generate_feed_for, prefix_universe, FeedConfig};
use sc_router::{Calibration, Interface, LegacyRouter, PeerConfig, RouterConfig};
use sc_sim::{LinkParams, NodeId, SchedulerKind, World};

fn r1_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, i as u8, 0, 1)
}

fn provider_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, i as u8, 0, 2)
}

fn r1_mac(i: usize) -> MacAddr {
    MacAddr([0x02, 0x10, 0, 0, i as u8, 1])
}

fn provider_mac(i: usize) -> MacAddr {
    MacAddr([0x02, 0x40, 0, 0, i as u8, 2])
}

fn subnet(i: usize) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::new(10, i as u8, 0, 0), 24)
}

/// Parameters of the churn bench world.
#[derive(Clone, Copy, Debug)]
pub struct ChurnParams {
    /// Prefixes in the shared universe (every provider's feed size).
    pub prefixes: u32,
    /// Provider sessions (each with BFD).
    pub providers: usize,
    /// Withdraw/re-announce micro-bursts on the primary provider.
    pub bursts: u32,
    /// Prefixes withdrawn (then re-announced) per burst.
    pub burst_prefixes: u32,
    /// Burst period; the re-announcement lands half a period in.
    pub interval: SimDuration,
    /// BFD transmit interval on every session.
    pub bfd_interval: SimDuration,
    pub seed: u64,
    /// Event scheduler for the world (the comparison axis).
    pub scheduler: SchedulerKind,
    /// Route outgoing BGP messages through the original fresh-`Vec`
    /// encode path instead of the zero-alloc one (baseline runs).
    pub legacy_encode: bool,
}

impl ChurnParams {
    /// Full-feed scale: every provider loads a full table, then a long
    /// timer-dense churn regime (12 BFD'd sessions at 500 µs, 3000
    /// pre-scheduled micro-bursts) — the BFD-storm/churn-script shape
    /// the timer wheel exists for.
    pub fn paper() -> ChurnParams {
        ChurnParams {
            prefixes: 2_000,
            providers: 12,
            bursts: 3_000,
            burst_prefixes: 10,
            interval: SimDuration::from_millis(2),
            bfd_interval: SimDuration::from_micros(500),
            seed: 42,
            scheduler: SchedulerKind::default(),
            legacy_encode: false,
        }
    }

    /// Seconds-scale CI variant.
    pub fn smoke() -> ChurnParams {
        ChurnParams {
            prefixes: 1_000,
            providers: 8,
            bursts: 500,
            burst_prefixes: 20,
            interval: SimDuration::from_millis(2),
            bfd_interval: SimDuration::from_millis(1),
            seed: 42,
            scheduler: SchedulerKind::default(),
            legacy_encode: false,
        }
    }
}

/// A wired churn world plus the ids and horizon a driver needs.
pub struct ChurnWorld {
    pub world: World,
    pub r1: NodeId,
    pub providers: Vec<NodeId>,
    /// When the last scheduled burst (plus settle tail) has drained.
    pub end: SimTime,
}

/// Build the churn world with every burst pre-scheduled.
pub fn build_churn_world(p: ChurnParams) -> ChurnWorld {
    assert!(p.providers >= 1 && p.providers < 200);
    let universe = prefix_universe(p.prefixes, p.seed);
    let mut world = World::with_scheduler(p.seed, p.scheduler);
    let link = LinkParams::gigabit(SimDuration::from_micros(50));

    let feeds: Vec<Vec<UpdateMsg>> = (0..p.providers)
        .map(|i| {
            generate_feed_for(
                &FeedConfig::new(p.prefixes, p.seed, provider_ip(i), 65100 + i as u16),
                &universe,
            )
        })
        .collect();

    // Churn script: rotating slices of the primary's table are
    // withdrawn and re-announced half a period later. Pre-scheduling
    // every burst keeps thousands of control events pending — the deep
    // queue a scripted scenario sweep really produces.
    let start = SimTime::from_secs(2); // comfortably past full-feed convergence
    let slice = (p.burst_prefixes as usize).min(universe.len());
    let slices = (universe.len() / slice.max(1)).max(1);
    let reannounce_for = |s: usize| -> Vec<UpdateMsg> {
        let lo = s * slice;
        let targets = &universe[lo..(lo + slice).min(universe.len())];
        feeds[0]
            .iter()
            .filter_map(|u| {
                let nlri: Vec<Ipv4Prefix> = u
                    .nlri
                    .iter()
                    .copied()
                    .filter(|p| targets.contains(p))
                    .collect();
                (!nlri.is_empty()).then(|| UpdateMsg {
                    withdrawn: Vec::new(),
                    attrs: u.attrs.clone(),
                    nlri,
                })
            })
            .collect()
    };
    let withdraw_for = |s: usize| -> Vec<UpdateMsg> {
        let lo = s * slice;
        vec![UpdateMsg::withdraw(
            universe[lo..(lo + slice).min(universe.len())].to_vec(),
        )]
    };
    let per_slice: Vec<(Vec<UpdateMsg>, Vec<UpdateMsg>)> = (0..slices)
        .map(|s| (withdraw_for(s), reannounce_for(s)))
        .collect();

    let r1 = world.add_node(LegacyRouter::new(RouterConfig {
        name: "r1".into(),
        asn: 65001,
        router_id: Ipv4Addr::new(1, 1, 1, 1),
        cal: Calibration::instant(),
    }));
    let providers: Vec<NodeId> = (0..p.providers)
        .map(|i| {
            world.add_node(LegacyRouter::new(RouterConfig {
                name: format!("provider-{i}"),
                asn: 65100 + i as u16,
                router_id: provider_ip(i),
                cal: Calibration::instant(),
            }))
        })
        .collect();

    for i in 0..p.providers {
        let (_, r1_port, prov_port) = world.connect(r1, providers[i], link);
        let bfd = BfdConfig {
            local_discr: (10 + i) as u32,
            desired_min_tx: p.bfd_interval,
            required_min_rx: p.bfd_interval,
            detect_mult: 3,
        };
        {
            let r1n = world.node_mut::<LegacyRouter>(r1);
            let iface = r1n.add_interface(Interface {
                port: r1_port,
                ip: r1_ip(i),
                mac: r1_mac(i),
                subnet: subnet(i),
            });
            r1n.add_peer(PeerConfig {
                // Provider 0 is the primary: its churn flips best routes.
                local_pref: if i == 0 { 200 } else { 100 },
                local_port: (40000 + i) as u16,
                remote_port: 179,
                bfd: Some(BfdConfig {
                    local_discr: (100 + i) as u32,
                    ..bfd
                }),
                iface,
                ..PeerConfig::ebgp(provider_ip(i), provider_mac(i), true)
            });
            r1n.set_zero_alloc_encode(!p.legacy_encode);
        }
        {
            let pn = world.node_mut::<LegacyRouter>(providers[i]);
            pn.add_interface(Interface {
                port: prov_port,
                ip: provider_ip(i),
                mac: provider_mac(i),
                subnet: subnet(i),
            });
            pn.add_peer(PeerConfig {
                local_port: 179,
                remote_port: (40000 + i) as u16,
                bfd: Some(bfd),
                originate: feeds[i].clone(),
                ..PeerConfig::ebgp(r1_ip(i), r1_mac(i), false)
            });
            pn.set_zero_alloc_encode(!p.legacy_encode);
        }
    }

    let primary = providers[0];
    for b in 0..p.bursts {
        let at = start + p.interval * b as u64;
        let (w, r) = &per_slice[b as usize % slices];
        schedule_injection(&mut world, primary, at, w.clone());
        schedule_injection(&mut world, primary, at + p.interval / 2, r.clone());
    }

    let end = start + p.interval * p.bursts as u64 + SimDuration::from_millis(200);

    ChurnWorld {
        world,
        r1,
        providers,
        end,
    }
}

fn schedule_injection(world: &mut World, node: NodeId, at: SimTime, updates: Vec<UpdateMsg>) {
    world.schedule(at, move |w| {
        let tokens = w.node_mut::<LegacyRouter>(node).inject_updates(&updates);
        let now = w.now();
        for tok in tokens {
            w.wake_node(now, node, tok);
        }
    });
}

/// The measured outcome of one churn run.
#[derive(Clone, Copy, Debug)]
pub struct ChurnMeasurement {
    pub events: u64,
    pub wall: std::time::Duration,
    pub updates_processed: u64,
    pub fib_ops_applied: u64,
}

impl ChurnMeasurement {
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Drive a churn world to its horizon, timing the run.
pub fn run_churn(cw: &mut ChurnWorld) -> ChurnMeasurement {
    let ((), wall) = crate::timing::timed(|| cw.world.run_until(cw.end));
    let r1 = cw.world.node::<LegacyRouter>(cw.r1);
    ChurnMeasurement {
        events: cw.world.stats().events_processed,
        wall,
        updates_processed: r1.stats.updates_processed,
        fib_ops_applied: r1.walker().ops_applied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_router::LegacyRouter;

    fn tiny() -> ChurnParams {
        ChurnParams {
            prefixes: 300,
            providers: 2,
            bursts: 20,
            burst_prefixes: 50,
            interval: SimDuration::from_millis(2),
            bfd_interval: SimDuration::from_millis(5),
            seed: 7,
            scheduler: SchedulerKind::default(),
            legacy_encode: false,
        }
    }

    #[test]
    fn churn_world_converges_and_churns() {
        let mut cw = build_churn_world(tiny());
        let m = run_churn(&mut cw);
        let r1 = cw.world.node::<LegacyRouter>(cw.r1);
        // Full feed installed from both providers (plus one connected
        // subnet per interface), churn processed.
        assert_eq!(r1.fib().len(), 300 + 2);
        assert_eq!(r1.rib().route_count(), 2 * 300);
        assert!(r1.stats.updates_processed > 40, "churn UPDATEs flowed");
        assert!(
            m.fib_ops_applied >= 300 + 2 * 20 * 50,
            "churn rewrote the FIB"
        );
        assert!(m.events > 1_000);
    }

    /// Scheduler choice and encode path are pure kernel-cost knobs: the
    /// event stream and every router-visible outcome must be identical.
    #[test]
    fn churn_world_is_invariant_under_scheduler_and_encode() {
        let base = {
            let mut cw = build_churn_world(tiny());
            run_churn(&mut cw)
        };
        for (sched, legacy) in [
            (SchedulerKind::ReferenceHeap, false),
            (SchedulerKind::TimerWheel, true),
            (SchedulerKind::ReferenceHeap, true),
        ] {
            let mut cw = build_churn_world(ChurnParams {
                scheduler: sched,
                legacy_encode: legacy,
                ..tiny()
            });
            let m = run_churn(&mut cw);
            assert_eq!(m.events, base.events, "{sched:?} legacy={legacy}");
            assert_eq!(m.updates_processed, base.updates_processed);
            assert_eq!(m.fib_ops_applied, base.fib_ops_applied);
        }
    }
}
