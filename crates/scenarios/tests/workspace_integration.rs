//! Workspace-spanning integration tests: the controller must rank
//! routes *exactly* like the router it fronts, the whole lab must be
//! deterministic from its seed, and the README's quickstart flow must
//! work end to end.

use sc_bgp::{compare_routes, LocRib, PeerInfo};
use sc_lab::topology::{IP_R2, IP_R3, MAC_R2, MAC_R3};
use sc_lab::Mode;
use sc_net::SimDuration;
use sc_routegen::{generate_feed_for, prefix_universe, FeedConfig};
use sc_scenarios::{
    build_scenario, run_scenario, EventScript, ScenarioConfig, ScenarioOutcome, TopologySpec,
};
use supercharger::controller::ControllerEvent;
use supercharger::engine::PeerSpec;
use supercharger::{Controller, Engine, EngineConfig};

/// The paper's experiment on the Fig. 4 lab: cut R2, measure.
fn fig4_cut(mode: Mode, cfg: &ScenarioConfig) -> ScenarioOutcome {
    run_scenario(
        &TopologySpec::Fig4Lab,
        &EventScript::primary_cut(),
        mode,
        cfg,
    )
}

/// The paper's correctness requirement (§2): the controller's decision
/// process must agree with the router's, otherwise its backup-groups
/// would protect the wrong primary. We feed identical provider feeds to
/// (a) a Loc-RIB configured with R1's import policy and (b) the engine,
/// and compare the (best, second) pair for every prefix.
#[test]
fn controller_ranks_exactly_like_the_router() {
    let prefixes = 3_000u32;
    let universe = prefix_universe(prefixes, 11);
    let feeds = [
        (
            IP_R2,
            200u32,
            generate_feed_for(&FeedConfig::new(prefixes, 11, IP_R2, 65002), &universe),
        ),
        (
            IP_R3,
            100u32,
            generate_feed_for(&FeedConfig::new(prefixes, 11, IP_R3, 65003), &universe),
        ),
    ];

    // (a) The router's view.
    let mut router_rib = LocRib::new();
    for (peer, local_pref, feed) in &feeds {
        for upd in feed {
            let attrs = upd.attrs.as_ref().unwrap();
            for pfx in &upd.nlri {
                let from = PeerInfo {
                    peer: *peer,
                    router_id: *peer,
                    ebgp: true,
                    igp_cost: 0,
                };
                router_rib.update(*pfx, attrs.clone(), from, *local_pref);
            }
        }
    }

    // (b) The controller's view.
    let mut engine = Engine::new(EngineConfig::new(
        "10.0.200.0/24".parse().unwrap(),
        vec![
            PeerSpec {
                id: IP_R2,
                mac: MAC_R2,
                switch_port: 2,
                local_pref: 200,
                router_id: IP_R2,
            },
            PeerSpec {
                id: IP_R3,
                mac: MAC_R3,
                switch_port: 3,
                local_pref: 100,
                router_id: IP_R3,
            },
        ],
    ));
    for (peer, _, feed) in &feeds {
        for upd in feed {
            engine.process_update(*peer, upd);
        }
    }

    assert_eq!(router_rib.prefix_count(), engine.rib().prefix_count());
    for (pfx, router_cands) in router_rib.iter() {
        let engine_cands = engine.rib().candidates(pfx);
        assert_eq!(router_cands.len(), engine_cands.len(), "{pfx}");
        for (r, e) in router_cands.iter().zip(engine_cands) {
            assert_eq!(r.peer, e.peer, "ranking disagrees at {pfx}");
        }
        // And the ranking is internally consistent with compare_routes.
        for pair in engine_cands.windows(2) {
            assert_ne!(
                compare_routes(engine.rib().peers(), &pair[1], &pair[0]),
                std::cmp::Ordering::Less,
                "candidate list must be sorted best-first at {pfx}"
            );
        }
    }
}

/// The whole lab — router, switch, controller, traffic — is a pure
/// function of its seed. Two runs must produce identical per-flow
/// measurements; a different seed must not.
#[test]
fn lab_is_deterministic_from_its_seed() {
    let cfg = ScenarioConfig {
        prefixes: 400,
        flows: 20,
        seed: 99,
        ..ScenarioConfig::default()
    };
    let a = fig4_cut(Mode::Supercharged, &cfg);
    let b = fig4_cut(Mode::Supercharged, &cfg);
    assert_eq!(a.per_flow, b.per_flow, "same seed, same measurements");
    assert_eq!(a.detected_at, b.detected_at);

    let c = fig4_cut(Mode::Supercharged, &ScenarioConfig { seed: 100, ..cfg });
    assert_ne!(
        a.per_flow, c.per_flow,
        "different seed shifts the (jittered) measurements"
    );
}

/// The quickstart flow through `sc_scenarios`' root re-exports, as the
/// README shows it, compiles and works.
#[test]
fn facade_quickstart_flow() {
    let cfg = ScenarioConfig {
        prefixes: 200,
        flows: 10,
        seed: 5,
        ..ScenarioConfig::default()
    };
    let report = fig4_cut(Mode::Supercharged, &cfg);
    let stats = report.stats();
    assert!(stats.max <= SimDuration::from_millis(150));
    assert_eq!(report.unrecovered, 0);
}

/// BFD disabled: the supercharged router falls back to hold-timer
/// detection — still prefix-independent, but detection dominates. This
/// pins down *why* the paper runs BFD.
#[test]
fn without_bfd_detection_dominates_but_stays_prefix_independent() {
    let cfg = ScenarioConfig {
        prefixes: 300,
        flows: 10,
        seed: 13,
        bfd: false,
        ..ScenarioConfig::default()
    };
    let mut lab = build_scenario(&TopologySpec::Fig4Lab, Mode::Supercharged, &cfg);
    lab.run_until_converged();
    let link = lab.provider_switch_links[0];
    let fail_at = lab.world.now() + SimDuration::from_secs(1);
    lab.world
        .schedule(fail_at, move |w| w.set_link_up(link, false));
    // Hold time is 90s: no failover for a long while...
    lab.world.run_until(fail_at + SimDuration::from_secs(30));
    let ctrl = lab.world.node::<Controller>(lab.controllers[0]);
    assert!(
        ctrl.events
            .iter()
            .all(|(_, e)| !matches!(e, ControllerEvent::FailoverIssued { .. })),
        "no BFD: the failure cannot have been detected yet"
    );
}
