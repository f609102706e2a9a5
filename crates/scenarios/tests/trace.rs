//! End-to-end trace determinism and phase-reconstruction contract.
//!
//! The flight recorder is part of the byte-identical determinism
//! surface: a traced trial must export the same JSONL, Chrome JSON and
//! metrics registry on every rerun, and the kernel's queue pops it in
//! the one `(time, origin key)` order (checked on every pop in debug
//! builds). And the causal phase columns it feeds must
//! *partition* the measured convergence: detect + notify + program +
//! fib equals the cycle's worst per-flow gap exactly, in both legacy
//! and supercharged mode.

use sc_lab::Mode;
use sc_net::SimDuration;
use sc_scenarios::{
    run_scenario_traced, EventScript, ScenarioConfig, SuiteReport, TopologySpec, TraceArtifacts,
};
use sc_scenarios::{ScenarioOutcome, SuiteConfig};

fn traced(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        prefixes: 300,
        flows: 10,
        seed,
        trace: true,
        ..ScenarioConfig::default()
    }
}

fn run(
    topo: &TopologySpec,
    script: &EventScript,
    mode: Mode,
    cfg: &ScenarioConfig,
) -> (ScenarioOutcome, TraceArtifacts) {
    let (out, art) = run_scenario_traced(topo, script, mode, cfg);
    (out, art.expect("trace was enabled"))
}

/// The opening cycle must carry a phase breakdown, and wherever a
/// breakdown exists its four phases must sum exactly to that cycle's
/// measured convergence. (Later flap cycles may legitimately have no
/// breakdown: a cut that lands while BFD is still bootstrapping back
/// produces no detection event, and recovery comes from the scripted
/// restore — a blank is honest there.)
fn assert_phases_partition(out: &ScenarioOutcome, label: &str) {
    assert!(
        out.cycles[0].phases.is_some(),
        "{label}: opening cycle has no phase breakdown"
    );
    let mut seen = 0;
    for (i, c) in out.cycles.iter().enumerate() {
        let Some(p) = &c.phases else { continue };
        let conv = c
            .per_flow
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO);
        assert_eq!(
            p.total(),
            conv,
            "{label}: cycle {i} phases must partition the measured convergence"
        );
        assert!(
            p.detect > SimDuration::ZERO,
            "{label}: cycle {i} detection cannot be instantaneous"
        );
        seen += 1;
    }
    assert!(seen > 0, "{label}: no cycle with a breakdown to check");
}

/// The chain + IXP flap cells from the issue: phase breakdowns must be
/// emitted and exact for both modes.
#[test]
fn phase_breakdowns_partition_measured_convergence() {
    let cfg = traced(7);
    let flap = EventScript::primary_flap(SimDuration::from_millis(400), 2);
    for topo in [
        TopologySpec::Chain {
            providers: 2,
            hops: 1,
        },
        TopologySpec::IxpHub { peers: 3 },
    ] {
        for mode in [Mode::Stock, Mode::Supercharged] {
            let (out, art) = run(&topo, &flap, mode, &cfg);
            let label = format!("{topo:?}/{mode:?}");
            assert_phases_partition(&out, &label);
            // The supercharged path must show actual programming work.
            if mode == Mode::Supercharged {
                assert!(
                    art.jsonl.contains("flowmod.batch"),
                    "{label}: no flow-mod spans in trace"
                );
            }
            assert!(art.jsonl.contains("\"cat\":\"detect\""), "{label}");
            assert!(art.chrome.contains("traceEvents"), "{label}");
            assert!(art.metrics_json.contains("counters"), "{label}");
            // The kernel self-profile and what the run's RIBs cost ride
            // along.
            for key in [
                "\"kernel.events.timer\":",
                "\"kernel.node.r1.",
                "\"rib.prefixes\":",
                "\"rib.routes\":",
                "\"rib.spilled_entries\":",
                "\"rib.entry_bytes\":",
                "\"rib.list_bytes\":",
            ] {
                assert!(art.metrics_json.contains(key), "{label}: no {key}");
            }
        }
    }
}

/// Stable CSV rows from a traced suite carry populated phase columns.
#[test]
fn stable_csv_carries_phase_columns() {
    let cfg = traced(7);
    let topo = TopologySpec::Chain {
        providers: 2,
        hops: 1,
    };
    let suite = SuiteConfig {
        topologies: vec![topo],
        scripts: vec![EventScript::primary_cut()],
        modes: vec![Mode::Stock, Mode::Supercharged],
        base: cfg,
        workers: None,
    };
    let report = sc_scenarios::run_suite(&suite);
    let csv = report.to_csv_stable();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    for col in ["detect_us", "notify_us", "program_us", "fib_us"] {
        assert!(header.contains(&col), "missing column {col}");
    }
    let detect_ix = header.iter().position(|c| *c == "detect_us").unwrap();
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert!(
            !fields[detect_ix].is_empty(),
            "phase column empty in traced row: {line}"
        );
        let v: u64 = fields[detect_ix]
            .split(';')
            .next()
            .unwrap()
            .parse()
            .expect("detect_us must be numeric");
        assert!(v > 0, "zero detection phase: {line}");
    }
    // JSON side too: per-cycle phase fields appear on traced rows.
    let json = report.to_json_stable();
    for key in ["detect_ns", "notify_ns", "program_ns", "fib_ns"] {
        assert!(json.contains(key), "missing {key} in stable JSON");
    }
}

/// The hard export contract: trace exports (JSONL + Chrome), the
/// stable report row and the whole metrics registry — domain counters
/// and the always-on `kernel.events.*` / `kernel.node.*` counts alike —
/// are byte-identical across reruns. Any queue popping in key order
/// would export them too: the wheel's order check holds every pop to
/// that order in debug builds.
#[test]
fn trace_exports_are_scheduler_invariant() {
    let topo = TopologySpec::Chain {
        providers: 2,
        hops: 1,
    };
    let script = EventScript::primary_cut();
    let render = |art: &TraceArtifacts, out: &ScenarioOutcome| {
        format!(
            "{}\n{}\n{}",
            art.jsonl,
            art.chrome,
            SuiteReport::row_json_stable(out)
        )
    };
    for mode in [Mode::Stock, Mode::Supercharged] {
        let (ref_out, ref_art) = run(&topo, &script, mode, &traced(11));
        let reference = render(&ref_art, &ref_out);
        assert!(ref_art.jsonl.lines().count() > 10, "{mode:?}: trace empty");

        // Rerun: every artifact byte-identical, metrics included.
        let (out2, art2) = run(&topo, &script, mode, &traced(11));
        assert_eq!(render(&art2, &out2), reference, "{mode:?}: rerun differs");
        assert_eq!(
            art2.metrics_json, ref_art.metrics_json,
            "{mode:?}: rerun metrics differ"
        );
    }
}
