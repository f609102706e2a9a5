//! Leak detector for wakeup timers, end to end.
//!
//! A state machine's glue leaks timers when a superseded timer's fire
//! re-arms a deadline that already has one: the duplicates re-seed
//! themselves every period, so an *idle* converged world costs more
//! events in every window than in the one before (quadratic in simulated
//! time over a run). With one live wakeup per state machine
//! (`sc_sim::Wakeup`) an idle window costs what the previous one did,
//! and a node's timer fires are bounded by the work that was due.

use sc_net::SimDuration;
use sc_scenarios::{
    build_scenario, BuiltScenario, EventScript, Mode, ScenarioConfig, ScenarioEvent, TopologySpec,
};
use supercharger::Controller;

const WINDOW: SimDuration = SimDuration::from_secs(2);
/// Allowance per window for the timers that are not BFD: session
/// keepalives, channel retransmission timers (at most one per RTO
/// period per channel) and flow-mod acks. The leak this file guards
/// against overshoots it twenty-fold in the first window.
const SLOW_TIMERS: u64 = 64;

/// What one idle window cost: kernel events, timer fires at controller
/// 0, and the BFD packets that controller sent.
#[derive(Debug)]
struct WindowCost {
    events: u64,
    ctl_timers: u64,
    ctl_bfd_sent: u64,
}

fn controller_bfd_sent(scn: &BuiltScenario) -> u64 {
    let ctl = scn.world.node::<Controller>(scn.controllers[0]);
    scn.provider_ips
        .iter()
        .filter_map(|&ip| ctl.bfd_counters(ip))
        .map(|(sent, _received)| sent)
        .sum()
}

fn idle_window(scn: &mut BuiltScenario) -> WindowCost {
    let ctl = scn.controllers[0];
    let before = (
        scn.world.stats().events_processed,
        scn.world.node_stats(ctl).timers_fired,
        controller_bfd_sent(scn),
    );
    scn.world.run_for(WINDOW);
    WindowCost {
        events: scn.world.stats().events_processed - before.0,
        ctl_timers: scn.world.node_stats(ctl).timers_fired - before.1,
        ctl_bfd_sent: controller_bfd_sent(scn) - before.2,
    }
}

/// Two consecutive idle windows cost the same, and the controller's
/// timers are accounted for by what was due: one per BFD packet it sent
/// plus `slow_budget` for everything slower.
fn assert_no_leak(scn: &mut BuiltScenario, slow_budget: u64, tag: &str) {
    let first = idle_window(scn);
    let second = idle_window(scn);
    assert!(
        second.events as f64 <= first.events as f64 * 1.02,
        "{tag}: idle windows grow: {first:?} then {second:?}"
    );
    for w in [&first, &second] {
        assert!(w.ctl_bfd_sent > 1_000, "{tag}: BFD is not running: {w:?}");
        assert!(
            w.ctl_timers <= w.ctl_bfd_sent + slow_budget,
            "{tag}: controller fired {} timers for {} BFD packets due (+{slow_budget} slow): {w:?}",
            w.ctl_timers,
            w.ctl_bfd_sent
        );
    }
}

fn ixp12(cfg: ScenarioConfig) -> BuiltScenario {
    let cfg = ScenarioConfig {
        prefixes: 200,
        flows: 2,
        seed: 42,
        bfd_interval: SimDuration::from_millis(1),
        ..cfg
    };
    let mut scn = build_scenario(
        &TopologySpec::IxpHub { peers: 12 },
        Mode::Supercharged,
        &cfg,
    );
    scn.run_until_converged();
    scn
}

#[test]
fn idle_converged_world_costs_the_same_every_window() {
    let mut scn = ixp12(ScenarioConfig::default());
    assert_no_leak(&mut scn, SLOW_TIMERS, "ixp12 idle");
}

#[test]
fn restarted_controller_does_not_inherit_a_timer_storm() {
    let echo = SimDuration::from_millis(10);
    let mut scn = ixp12(ScenarioConfig {
        echo_interval: Some(echo),
        controller_deadline: Some(SimDuration::from_millis(50)),
        fallback_sessions: true,
        ..ScenarioConfig::default()
    });
    let script = EventScript::new(
        "crash-restart",
        vec![
            ScenarioEvent::CrashController {
                replica: 0,
                at: SimDuration::from_millis(10),
            },
            ScenarioEvent::RestartController {
                replica: 0,
                at: SimDuration::from_millis(150),
            },
        ],
    );
    let t0 = scn.world.now();
    script.apply(&mut scn, t0);
    scn.world.run_for(script.end());
    scn.run_until_converged();
    // The robustness stack adds one liveness beacon per echo interval.
    let beacons = WINDOW.as_nanos() / echo.as_nanos();
    assert_no_leak(
        &mut scn,
        beacons + SLOW_TIMERS,
        "ixp12 after controller restart",
    );
}
