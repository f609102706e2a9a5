//! End-to-end tests of the convergence-invariant engine riding real
//! scenario trials: supercharged failover must *shrink* violation
//! windows relative to the legacy baseline (never widen them — even
//! with a controller replica crashing mid-failover), a no-failure
//! control cell must report zero violations, and invariant-annotated
//! stable reports must stay byte-identical across reruns (and, by the
//! kernel queue's debug-build order check, of any queue popping in key
//! order). The engine's exact answers on five small cells are pinned.

use sc_net::SimDuration;
use sc_scenarios::{
    run_scenario, run_suite, EventScript, Mode, ScenarioConfig, SuiteConfig, TopologySpec,
    ViolationClass,
};

/// Seconds-scale trial config with the invariant engine on.
fn inv_cfg(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        prefixes: 300,
        flows: 10,
        seed,
        invariants: true,
        ..ScenarioConfig::default()
    }
}

/// A flap slow enough for a full down→up→re-converge cycle at this
/// scale (the smoke-bench setting).
fn slow_flap() -> EventScript {
    EventScript::primary_flap(SimDuration::from_secs(3), 2)
}

#[test]
fn supercharged_shrinks_per_cycle_blackhole_windows() {
    for topo in [
        TopologySpec::Chain {
            providers: 2,
            hops: 1,
        },
        TopologySpec::IxpHub { peers: 3 },
    ] {
        let cfg = inv_cfg(42);
        let script = slow_flap();
        let leg = run_scenario(&topo, &script, Mode::Stock, &cfg);
        let sup = run_scenario(&topo, &script, Mode::Supercharged, &cfg);
        let (li, si) = (
            leg.invariants.as_ref().expect("engine was on"),
            sup.invariants.as_ref().expect("engine was on"),
        );
        assert_eq!(li.windows.len(), 2, "one window per flap cycle");
        assert_eq!(si.windows.len(), 2);
        for (w, (lw, sw)) in li.windows.iter().zip(&si.windows).enumerate() {
            let (l, s) = (
                lw.duration(ViolationClass::Blackhole),
                sw.duration(ViolationClass::Blackhole),
            );
            assert!(
                s < l,
                "{topo:?} cycle {w}: supercharged blackhole window {s} \
                 not shorter than legacy {l}"
            );
        }
        // The flap cuts a cable; nothing should ever cycle.
        assert_eq!(li.hits(ViolationClass::Loop), 0);
        assert_eq!(si.hits(ViolationClass::Loop), 0);
    }
}

#[test]
fn replica_crash_never_widens_any_violation_window() {
    // Cut the primary and crash the standby controller replica 2 ms
    // into the failover. In legacy mode the crash is a no-op (there are
    // no replicas), so the comparison isolates what replica divergence
    // costs the supercharged path: it must still never be worse than
    // the legacy baseline, per window and per class.
    let script = EventScript::replica_crash(1, SimDuration::from_millis(2));
    for topo in [
        TopologySpec::Fig4Lab,
        TopologySpec::Chain {
            providers: 2,
            hops: 1,
        },
        TopologySpec::IxpHub { peers: 3 },
    ] {
        let cfg = ScenarioConfig {
            controllers: 2,
            ..inv_cfg(7)
        };
        let leg = run_scenario(&topo, &script, Mode::Stock, &cfg);
        let sup = run_scenario(&topo, &script, Mode::Supercharged, &cfg);
        let (li, si) = (
            leg.invariants.as_ref().expect("engine was on"),
            sup.invariants.as_ref().expect("engine was on"),
        );
        assert_eq!(li.windows.len(), si.windows.len());
        for (w, (lw, sw)) in li.windows.iter().zip(&si.windows).enumerate() {
            for class in [
                ViolationClass::Blackhole,
                ViolationClass::Loop,
                ViolationClass::Transit,
            ] {
                assert!(
                    sw.duration(class) <= lw.duration(class),
                    "{topo:?} window {w} {class:?}: supercharged {} wider than legacy {}",
                    sw.duration(class),
                    lw.duration(class)
                );
            }
        }
    }
}

#[test]
fn no_failure_control_cell_reports_zero_violations() {
    // A script with no events measures one quiet window at the origin:
    // the engine must see every flow delivered at every sample — any
    // hit here would be a false positive in the walker itself.
    let script = EventScript::new("none", vec![]);
    let topo = TopologySpec::Chain {
        providers: 2,
        hops: 1,
    };
    for mode in [Mode::Stock, Mode::Supercharged] {
        let cfg = inv_cfg(42);
        let out = run_scenario(&topo, &script, mode, &cfg);
        let inv = out.invariants.as_ref().expect("engine was on");
        assert!(inv.samples() > 0, "the engine must actually have sampled");
        for class in [
            ViolationClass::Blackhole,
            ViolationClass::Loop,
            ViolationClass::Transit,
        ] {
            assert_eq!(
                inv.hits(class),
                0,
                "{mode:?}: false-positive {class:?} hits on a quiet network"
            );
        }
    }
}

#[test]
fn invariant_reports_are_byte_identical_across_reruns_and_schedulers() {
    let wheel = SuiteConfig {
        topologies: vec![TopologySpec::Chain {
            providers: 2,
            hops: 1,
        }],
        scripts: vec![EventScript::replica_crash(1, SimDuration::from_millis(2))],
        modes: vec![Mode::Stock, Mode::Supercharged],
        base: ScenarioConfig {
            controllers: 2,
            ..inv_cfg(42)
        },
        workers: Some(2),
    };
    let a = run_suite(&wheel);
    let b = run_suite(&wheel);
    assert!(a.errors.is_empty(), "{:?}", a.errors);
    assert_eq!(
        a.to_csv_stable(),
        b.to_csv_stable(),
        "stable CSV must be byte-identical across reruns"
    );
    assert_eq!(a.to_json_stable(), b.to_json_stable());
    // The instrumented rows actually carry invariant columns (a quiet
    // regression would be all-blank cells passing the diffs above).
    let header = a.to_csv_stable();
    let header = header.lines().next().unwrap();
    assert!(header.contains("viol_blackhole_us"));
    for row in &a.rows {
        assert!(row.invariants.is_some());
    }
}

/// One cell's invariant answers: `(inv_samples, viol_*_ns, hits_*)`,
/// each array in [`ViolationClass`] order (blackhole, loop, transit).
type Answers = (u64, [u64; 3], [u64; 3]);

fn answers(topo: &TopologySpec, script: &EventScript, mode: Mode) -> Answers {
    // The `scenarios --smoke --invariants` setting: two replicas.
    let cfg = ScenarioConfig {
        controllers: 2,
        ..inv_cfg(42)
    };
    let out = run_scenario(topo, script, mode, &cfg);
    let inv = out.invariants.as_ref().expect("engine was on");
    let classes = [
        ViolationClass::Blackhole,
        ViolationClass::Loop,
        ViolationClass::Transit,
    ];
    (
        inv.samples(),
        classes.map(|c| inv.total(c).as_nanos()),
        classes.map(|c| inv.hits(c)),
    )
}

/// The engine's exact answers on small cells in both modes, pinned: a
/// walk that drifted from what the switch and the router forward would
/// change a violation span or a hit count here even where a rerun
/// agrees with itself. Each row is `(stock, supercharged)`.
#[test]
fn invariant_answers_are_pinned() {
    let chain = TopologySpec::Chain {
        providers: 2,
        hops: 1,
    };
    const MS: u64 = 1_000_000;
    let cut = [
        (341, [435 * MS, 0, 0], [88, 0, 0]),
        (291, [95 * MS, 0, 0], [20, 0, 0]),
    ];
    let cells: [(TopologySpec, EventScript, [Answers; 2]); 5] = [
        (TopologySpec::Fig4Lab, EventScript::primary_cut(), cut),
        (chain.clone(), EventScript::primary_cut(), cut),
        (
            chain.clone(),
            slow_flap(),
            [
                (1241, [870 * MS, 0, 0], [176, 0, 0]),
                (1191, [175 * MS, 0, 0], [37, 0, 0]),
            ],
        ),
        (
            chain.clone(),
            EventScript::replica_crash(1, SimDuration::from_millis(2)),
            [(342, [435 * MS, 0, 0], [88, 0, 0]), cut[1]],
        ),
        (
            chain,
            EventScript::withdraw_burst(75),
            [
                (341, [0, 0, 0], [0, 0, 1]),
                (291, [0, 0, 20 * MS], [0, 0, 5]),
            ],
        ),
    ];
    for (topo, script, want) in &cells {
        for (mode, want) in [Mode::Stock, Mode::Supercharged].into_iter().zip(want) {
            assert_eq!(
                answers(topo, script, mode),
                *want,
                "{topo:?} {} {mode:?}: (inv_samples, viol_*_ns, hits_*)",
                script.name
            );
        }
    }
}
