//! End-to-end tests of graceful degradation: cut the primary and crash
//! the (only) controller at adversarial instants — before the fallback
//! BFD detects the cut, mid-reaction, and long after the controller
//! already converged the dataplane. The supercharged-degraded cell must
//! do no harm relative to the legacy baseline on the same script and
//! seed: per-cycle convergence no worse, no violation window wider. A
//! restarted controller must reconcile (engine resync, degraded-mode
//! exit); without a restart, degradation must persist to the horizon.
//! Degraded-annotated stable reports stay byte-identical across reruns
//! (and, by the kernel queue's debug-build order check, of any queue
//! popping in key order).

use sc_net::SimDuration;
use sc_scenarios::{
    run_scenario, run_suite, EventScript, LinkRef, Mode, ProviderSel, ScenarioConfig,
    ScenarioEvent, SuiteConfig, TopologySpec, ViolationClass,
};

/// Seconds-scale trial config with the full robustness stack on:
/// controller keepalive beacons every 10 ms, a 50 ms router-side
/// liveness deadline (≥ half the fallback BFD detection time, so the
/// degraded recompute always quarantines the dead primary), direct
/// fallback BGP sessions, and the invariant engine.
fn robust_cfg(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        prefixes: 300,
        flows: 10,
        seed,
        invariants: true,
        echo_interval: Some(SimDuration::from_millis(10)),
        controller_deadline: Some(SimDuration::from_millis(50)),
        fallback_sessions: true,
        ..ScenarioConfig::default()
    }
}

/// Primary cut at the origin, controller 0 crashed `crash_at` later.
/// Legacy builds no-op the crash, so both modes measure identical
/// windows: [origin, crash) and [crash, horizon].
fn cut_then_crash(crash_at: SimDuration) -> EventScript {
    EventScript::new(
        "cut-crash",
        vec![
            ScenarioEvent::LinkDown {
                link: LinkRef::ProviderSwitch(ProviderSel::Primary),
                at: SimDuration::ZERO,
            },
            ScenarioEvent::CrashController {
                replica: 0,
                at: crash_at,
            },
        ],
    )
}

#[test]
fn controller_crash_at_any_instant_is_never_worse_than_legacy() {
    // The sweep: crash before the controller reacts (1 ms), mid-reaction
    // (5 ms), after the supercharged dataplane converged but before the
    // fallback BFD would fire (20 ms), and long after (100 ms). The
    // worst case is the early crash — R1 must fall back on its own
    // (liveness deadline + BFD-stale quarantine) without ever having
    // been rescued by the controller.
    for topo in [
        TopologySpec::Chain {
            providers: 2,
            hops: 1,
        },
        TopologySpec::IxpHub { peers: 3 },
    ] {
        for crash_ms in [1u64, 5, 20, 100] {
            let cfg = robust_cfg(42);
            let script = cut_then_crash(SimDuration::from_millis(crash_ms));
            let leg = run_scenario(&topo, &script, Mode::Stock, &cfg);
            let sup = run_scenario(&topo, &script, Mode::Supercharged, &cfg);
            let tag = format!("{topo:?} crash@{crash_ms}ms");

            // Per-cycle do-no-harm on the convergence distribution.
            assert_eq!(leg.cycles.len(), sup.cycles.len(), "{tag}");
            for (i, (lc, sc)) in leg.cycles.iter().zip(&sup.cycles).enumerate() {
                let (l, s) = (lc.stats(), sc.stats());
                assert!(
                    s.median <= l.median && s.max <= l.max,
                    "{tag} cycle {i}: supercharged-degraded {:?}/{:?} worse \
                     than legacy {:?}/{:?}",
                    s.median,
                    s.max,
                    l.median,
                    l.max
                );
                assert_eq!(
                    lc.degraded,
                    SimDuration::ZERO,
                    "{tag}: legacy rows must never report degraded time"
                );
            }
            // Degradation actually happened (the crash was not a no-op
            // on the supercharged side) and end-state health holds.
            let degraded: SimDuration = sup
                .cycles
                .iter()
                .map(|c| c.degraded)
                .fold(SimDuration::ZERO, |a, b| a + b);
            assert!(degraded > SimDuration::ZERO, "{tag}: never degraded");
            assert_eq!(leg.unrecovered, 0, "{tag}");
            assert_eq!(sup.unrecovered, 0, "{tag}");

            // Zero violation widening, per window and per class.
            let (li, si) = (
                leg.invariants.as_ref().expect("engine was on"),
                sup.invariants.as_ref().expect("engine was on"),
            );
            assert_eq!(li.windows.len(), si.windows.len(), "{tag}");
            for (w, (lw, sw)) in li.windows.iter().zip(&si.windows).enumerate() {
                for class in [
                    ViolationClass::Blackhole,
                    ViolationClass::Loop,
                    ViolationClass::Transit,
                ] {
                    assert!(
                        sw.duration(class) <= lw.duration(class),
                        "{tag} window {w} {class:?}: supercharged {} wider \
                         than legacy {}",
                        sw.duration(class),
                        lw.duration(class)
                    );
                }
            }
        }
    }
}

#[test]
fn degradation_persists_until_the_controller_returns() {
    // Without a restart the controller stays dead: R1 must hold
    // degraded mode to the measurement horizon (≥ 1 s past the crash
    // onset), not flap back on its own.
    let topo = TopologySpec::Chain {
        providers: 2,
        hops: 1,
    };
    let cfg = robust_cfg(42);
    let script = cut_then_crash(SimDuration::from_millis(20));
    let sup = run_scenario(&topo, &script, Mode::Supercharged, &cfg);
    let last = sup.cycles.last().expect("crash opens a window");
    assert!(
        last.degraded > SimDuration::from_millis(800),
        "degraded mode ended early ({:?}) with no controller to return to",
        last.degraded
    );
    assert_eq!(sup.unrecovered, 0, "fallback plane must still converge");
}

#[test]
fn controller_restart_reconciles_and_exits_degraded_mode() {
    // Boot a fresh controller into the crashed slot at +300 ms: the
    // handshakes and engine resync rerun, R1 sees fresh liveness
    // evidence and leaves degraded mode. The degraded interval is then
    // bounded by the outage (+ re-establishment lag) — far below the
    // ≥ 1 s final window a stuck degradation would fill.
    let topo = TopologySpec::Chain {
        providers: 2,
        hops: 1,
    };
    let cfg = robust_cfg(42);
    let script = EventScript::new(
        "cut-crash-restart",
        vec![
            ScenarioEvent::LinkDown {
                link: LinkRef::ProviderSwitch(ProviderSel::Primary),
                at: SimDuration::ZERO,
            },
            ScenarioEvent::CrashController {
                replica: 0,
                at: SimDuration::from_millis(20),
            },
            ScenarioEvent::RestartController {
                replica: 0,
                at: SimDuration::from_millis(300),
            },
        ],
    );
    let sup = run_scenario(&topo, &script, Mode::Supercharged, &cfg);
    let degraded: SimDuration = sup
        .cycles
        .iter()
        .map(|c| c.degraded)
        .fold(SimDuration::ZERO, |a, b| a + b);
    assert!(
        degraded > SimDuration::ZERO,
        "the crash must degrade R1 first"
    );
    assert!(
        degraded < SimDuration::from_secs(1),
        "degraded {degraded:?}: R1 never reconciled with the restarted \
         controller"
    );
    assert_eq!(sup.unrecovered, 0, "post-reconciliation dataplane health");
    // Reconciliation must not cost correctness: the restarted
    // controller's resync may rewrite rules, but nothing may blackhole
    // or loop after the fallback plane already converged the FIB.
    let inv = sup.invariants.as_ref().expect("engine was on");
    let leg = run_scenario(&topo, &script, Mode::Stock, &cfg);
    let li = leg.invariants.as_ref().expect("engine was on");
    for (w, (lw, sw)) in li.windows.iter().zip(&inv.windows).enumerate() {
        for class in [
            ViolationClass::Blackhole,
            ViolationClass::Loop,
            ViolationClass::Transit,
        ] {
            assert!(
                sw.duration(class) <= lw.duration(class),
                "window {w} {class:?} widened across the restart"
            );
        }
    }
}

#[test]
fn degraded_reports_are_byte_identical_across_reruns_and_schedulers() {
    let script = EventScript::new(
        "cut-crash-restart",
        vec![
            ScenarioEvent::LinkDown {
                link: LinkRef::ProviderSwitch(ProviderSel::Primary),
                at: SimDuration::ZERO,
            },
            ScenarioEvent::CrashController {
                replica: 0,
                at: SimDuration::from_millis(20),
            },
            ScenarioEvent::RestartController {
                replica: 0,
                at: SimDuration::from_millis(300),
            },
        ],
    );
    let suite = SuiteConfig {
        topologies: vec![TopologySpec::Chain {
            providers: 2,
            hops: 1,
        }],
        scripts: vec![script],
        modes: vec![Mode::Stock, Mode::Supercharged],
        base: robust_cfg(42),
        workers: Some(2),
    };
    let a = run_suite(&suite);
    let b = run_suite(&suite);
    assert!(a.errors.is_empty(), "{:?}", a.errors);
    assert_eq!(
        a.to_csv_stable(),
        b.to_csv_stable(),
        "stable CSV must be byte-identical across reruns"
    );
    assert_eq!(a.to_json_stable(), b.to_json_stable());
    // The robustness columns actually carry data (all-blank cells would
    // pass the byte-diffs above).
    let csv = a.to_csv_stable();
    let header = csv.lines().next().unwrap();
    assert!(header.contains("degraded_us"));
    assert!(header.contains("flowmod_retries"));
    let sup_row = csv
        .lines()
        .find(|l| l.contains("supercharged"))
        .expect("supercharged row present");
    let degraded_col = header.split(',').position(|c| c == "degraded_us").unwrap();
    let cell = sup_row.split(',').nth(degraded_col).unwrap();
    assert!(
        cell.split(';')
            .any(|v| v.parse::<u64>().map(|n| n > 0).unwrap_or(false)),
        "supercharged degraded_us cell empty: {cell:?}"
    );
}
