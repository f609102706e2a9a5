//! **Scenario matrix** — the full evaluation beyond the paper's lab:
//! every topology family × a library of failure scripts × both modes,
//! at paper-scale prefix counts. The families are the Fig. 4 lab, a
//! three-provider chain of two forwarders each (`chain3x2`), and the
//! §5 IXP hub with 3 and 6 participants (`ixp3`, `ixp6`).
//!
//! ```text
//! cargo run --release -p sc-bench --bin scenarios [--prefixes N] \
//!     [--flows N] [--seed N] [--workers N] [--quick] [--smoke] [--jsonl] \
//!     [--csv out.csv] [--json out.json] [--invariants] [--chaos] \
//!     [--trace]
//! ```
//!
//! * default: 10k prefixes, the full 4-topology × 5-script matrix;
//! * `--quick`: 1k prefixes and the cut/flap scripts only (CI-sized);
//! * `--smoke`: one topology, 300 prefixes, cut + 2-cycle flap — the
//!   seconds-scale sanity run CI executes on every push;
//! * `--workers N`: pin the suite worker pool (default: one thread per
//!   core) — a run timed from outside wants a fixed, machine-independent
//!   degree of parallelism. The pool is capped at the machine's available
//!   parallelism (an oversized `--workers` is clamped, not honored);
//! * `--jsonl`: stream one JSON object per trial to stdout *as each
//!   trial completes* instead of buffering the whole report — long
//!   sweeps become watchable and `tail -f`-able. Errors stream inline
//!   as `{"topology":…,"error":…}` objects.
//! * `--invariants`: run the `sc-invariant` convergence-invariant
//!   engine in every trial (off by default: the samples are
//!   deterministic but not free), report per-class
//!   violation durations, and add a two-replica `replica-crash`
//!   divergence cell to the matrix;
//! * `--chaos`: the fail-safe soak — replace the script library with
//!   the seeded chaos schedule ([`EventScript::chaos`]: primary cut +
//!   lossy control channel + dropped flow-mods + controller
//!   crash/restart + partition) and switch on the robustness stack
//!   (controller keepalive beacons, router liveness deadline, direct
//!   fallback BGP sessions). Chaos events no-op in legacy mode, so the
//!   legacy rows stay the do-no-harm baseline. Stable reports remain
//!   byte-identical across reruns — chaos is seeded, not random;
//! * `--trace`: run every trial with the sc-trace flight recorder on.
//!   Report rows gain the per-cycle causal phase columns
//!   (`detect_us`/`notify_us`/`program_us`/`fib_us`); use the `trace`
//!   binary to export the underlying JSONL/Chrome artifacts;
//! * `--csv out.csv` / `--json out.json`: write the report; both are
//!   byte-reproducible — what the CI smoke diffs across reruns. The
//!   JSON adds each flow's gap and full per-cycle
//!   statistics.
#![allow(clippy::disallowed_macros, reason = "a CLI: printing is its job")]

use sc_bench::{fig5_label, Args, Table};
use sc_lab::Mode;
use sc_net::SimDuration;
use sc_scenarios::{
    run_suite_with, EventScript, ScenarioConfig, SuiteConfig, SuiteReport, TopologySpec,
    TrialResult, ViolationClass,
};
use std::io::Write;

fn main() {
    let args = Args::parse();
    let quick = args.flag("--quick");
    let smoke = args.flag("--smoke");
    let jsonl = args.flag("--jsonl");
    let default_prefixes = if smoke {
        300
    } else if quick {
        1_000
    } else {
        10_000
    };
    let prefixes: u32 = args.value("--prefixes", default_prefixes);
    let flows: usize = args.value("--flows", if smoke { 10 } else { 50 });
    let seed: u64 = args.value("--seed", 42);
    let workers: Option<usize> = args.opt_value("--workers");
    let invariants = args.flag("--invariants");
    let chaos = args.flag("--chaos");
    let trace = args.flag("--trace");

    let topologies = if smoke {
        vec![TopologySpec::Chain {
            providers: 2,
            hops: 1,
        }]
    } else {
        vec![
            TopologySpec::Fig4Lab,
            TopologySpec::Chain {
                providers: 3,
                hops: 2,
            },
            TopologySpec::IxpHub { peers: 3 },
            TopologySpec::IxpHub { peers: 6 },
        ]
    };
    let mut scripts = vec![
        EventScript::primary_cut(),
        EventScript::primary_flap(
            if smoke {
                // Long enough for a full down→up→re-converge cycle at
                // smoke scale, so cycle 2 exercises re-advertisement.
                SimDuration::from_secs(3)
            } else {
                SimDuration::from_millis(250)
            },
            if smoke { 2 } else { 3 },
        ),
    ];
    if !quick && !smoke {
        scripts.push(EventScript::primary_crash());
        scripts.push(EventScript::primary_session_reset(SimDuration::from_secs(
            2,
        )));
        scripts.push(EventScript::withdraw_burst(prefixes / 4));
    }
    if invariants {
        // The replica-divergence probe: cut the primary and crash the
        // standby controller replica mid-failover. A no-op in legacy
        // mode (no replicas), so both sides of the cell stay comparable.
        scripts.push(EventScript::replica_crash(1, SimDuration::from_millis(2)));
    }
    if chaos {
        // The soak cell replaces the library: one seeded chaos schedule,
        // both modes. The legacy row ignores every controller-targeted
        // event and anchors the do-no-harm comparison.
        scripts = vec![EventScript::chaos(seed)];
    }
    let suite = SuiteConfig {
        topologies,
        scripts,
        modes: vec![Mode::Stock, Mode::Supercharged],
        base: ScenarioConfig {
            prefixes,
            flows,
            seed,
            invariants,
            // Two replicas whenever the divergence cell is in the
            // matrix, so `replica_crash(1, …)` has a standby to kill.
            controllers: if invariants { 2 } else { 1 },
            // The robustness stack rides only the chaos soak: keepalive
            // beacons every 10 ms, a 50 ms router-side liveness
            // deadline (must exceed half the BFD detection time so a
            // dead primary is already BFD-stale when degraded recompute
            // quarantines it), and direct fallback BGP sessions so
            // degraded mode has routes to fall back on.
            echo_interval: chaos.then(|| SimDuration::from_millis(10)),
            controller_deadline: chaos.then(|| SimDuration::from_millis(50)),
            fallback_sessions: chaos,
            // Flight recorder on: reports gain the per-cycle causal
            // phase columns (detect/notify/program/fib µs).
            trace,
            ..ScenarioConfig::default()
        },
        workers,
    };
    let trials = suite.topologies.len() * suite.scripts.len() * suite.modes.len();
    if !jsonl {
        println!("scenario matrix: {trials} trials at {prefixes} prefixes, {flows} flows\n");
    }

    let report = run_suite_with(&suite, |_, result| {
        if !jsonl {
            return;
        }
        let line = match result {
            TrialResult::Ok(row) => SuiteReport::row_json_stable(row).to_string(),
            TrialResult::Err(e) => SuiteReport::error_json(e).to_string(),
        };
        // One locked write per row: rows from parallel workers never
        // interleave mid-line.
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let _ = writeln!(out, "{line}");
    });

    if !jsonl {
        let mut table = Table::new(&[
            "topology",
            "script",
            "mode",
            "median",
            "p95",
            "max",
            "lost",
            "detect",
            "rewrites",
            "cycles",
            "viol b/l/t",
        ]);
        for row in &report.rows {
            let s = row.stats();
            table.row(vec![
                row.topology.clone(),
                row.script.clone(),
                sc_scenarios::mode_label(row.mode).to_string(),
                fig5_label(s.median),
                fig5_label(s.p95),
                fig5_label(s.max),
                row.unrecovered.to_string(),
                row.detected_at
                    .map(|t| fig5_label(t - row.fail_at))
                    .unwrap_or_else(|| "-".into()),
                row.flow_rewrites
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "-".into()),
                if row.cycles.len() > 1 {
                    // Per-cycle medians: repeated convergence at a glance.
                    row.cycles
                        .iter()
                        .map(|c| fig5_label(c.stats().median))
                        .collect::<Vec<_>>()
                        .join(";")
                } else {
                    "-".into()
                },
                row.invariants
                    .as_ref()
                    .map(|inv| {
                        format!(
                            "{}/{}/{}",
                            fig5_label(inv.total(ViolationClass::Blackhole)),
                            fig5_label(inv.total(ViolationClass::Loop)),
                            fig5_label(inv.total(ViolationClass::Transit)),
                        )
                    })
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        println!("{}", table.render());

        for (topo, script, x) in report.speedups() {
            println!("{topo:<12} {script:<16} {x:>7.0}x median speedup");
        }
        for e in &report.errors {
            eprintln!(
                "TRIAL FAILED {}/{}/{}: {}",
                e.topology,
                e.script,
                sc_scenarios::mode_label(e.mode),
                e.error
            );
        }
    }

    if let Some(path) = args.raw_value("--csv") {
        std::fs::write(&path, report.to_csv_stable()).expect("write CSV");
        if !jsonl {
            println!("wrote {path}");
        }
    }
    if let Some(path) = args.raw_value("--json") {
        std::fs::write(&path, report.to_json_stable()).expect("write JSON");
        if !jsonl {
            println!("wrote {path}");
        }
    }
    if !report.errors.is_empty() {
        std::process::exit(1);
    }
}
