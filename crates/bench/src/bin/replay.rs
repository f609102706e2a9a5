//! **MRT replay** — recorded routing data through the scenario engine:
//! an MRT `TABLE_DUMP_V2` snapshot loads every IXP participant's table
//! and a timed `BGP4MP_ET` update trace is replayed on top at recorded
//! (warpable) inter-arrival timing, legacy and supercharged, each
//! recorded burst measured in its own convergence window.
//!
//! ```text
//! cargo run --release -p sc-bench --bin replay -- \
//!     [--smoke] [--fixture] [--time-scale S] [--prefixes N] \
//!     [--providers K] [--bursts B] [--burst-prefixes N] \
//!     [--burst-gap-us US] [--seed N] [--out FILE]
//! ```
//!
//! By default both archives are *generated* by `sc_routegen::mrt` (in
//! memory — the parser and the replay compiler run either way);
//! `--smoke` picks the seconds-scale generator settings and `--fixture`
//! replays the committed `tests/fixtures/*.mrt` pair instead.
//! `--time-scale 0.1` replays any trace ten times faster. One JSON row
//! per mode goes to stdout (the `scenarios --jsonl` row shape); `--out`
//! writes the report: identical invocations produce byte-identical
//! files, the determinism contract CI checks.
#![allow(clippy::disallowed_macros, reason = "a CLI: printing is its job")]

use sc_bench::replay::{fixture_archives, generated_archives, replay_suite, ReplayParams};
use sc_bench::Args;
use sc_mrt::ReplaySchedule;
use sc_routegen::mrt::MrtExportConfig;
use sc_scenarios::{mode_label, run_suite, SuiteReport};

fn main() {
    let args = Args::parse();
    let base = if args.flag("--smoke") {
        ReplayParams::smoke()
    } else {
        ReplayParams::paper()
    };
    let p = ReplayParams {
        archive: MrtExportConfig {
            prefixes: args.value("--prefixes", base.archive.prefixes),
            peers: args.value("--providers", base.archive.peers),
            bursts: args.value("--bursts", base.archive.bursts),
            burst_prefixes: args.value("--burst-prefixes", base.archive.burst_prefixes),
            burst_gap_us: args.value("--burst-gap-us", base.archive.burst_gap_us),
            seed: args.value("--seed", base.archive.seed),
            ..base.archive
        },
        time_scale: args.value("--time-scale", base.time_scale),
    };
    let (rib, trace) = if args.flag("--fixture") {
        fixture_archives()
    } else {
        generated_archives(&p)
    };
    let sched = ReplaySchedule::compile(&trace, p.time_scale)
        .unwrap_or_else(|e| panic!("MRT update trace: {e}"));
    eprintln!(
        "replaying {} updates ({} prefix events) over {}",
        sched.events.len(),
        sched.prefix_events(),
        sched.end,
    );

    let report = run_suite(&replay_suite(&p, rib, trace));
    for row in &report.rows {
        let s = row.stats();
        eprintln!(
            "{} {}: {} prefixes, {} window(s), per-flow gap median {} max {}, {} lost, \
             {} events",
            row.topology,
            mode_label(row.mode),
            row.prefixes,
            row.cycles.len(),
            s.median,
            s.max,
            row.unrecovered,
            row.events_processed,
        );
        println!("{}", SuiteReport::row_json_stable(row));
    }
    for e in &report.errors {
        eprintln!("TRIAL FAILED {}: {}", mode_label(e.mode), e.error);
    }
    if let Some(path) = args.raw_value("--out") {
        std::fs::write(&path, report.to_json_stable()).expect("write JSON");
        eprintln!("wrote {path}");
    }
    if !report.errors.is_empty() {
        std::process::exit(1);
    }
}
