//! Self-test corpus: every rule must fire on its `*_bad.rs` exemplar
//! and stay silent on the matching `*_good.rs` one. The snippets live
//! under `tests/corpus/` as plain data — they are analyzed, never
//! compiled.

use sc_check::config::Severity;
use sc_check::rules::{analyze_source, FileAnalysis, Rule};

const SIM_CRATE: &str = "supercharger";
const SIM_PATH: &str = "crates/core/src/corpus.rs";

fn analyze(crate_name: &str, rel_path: &str, src: &str) -> FileAnalysis {
    analyze_source(crate_name, rel_path, src)
}

fn rules_of(fa: &FileAnalysis) -> Vec<Rule> {
    fa.diagnostics.iter().map(|d| d.rule).collect()
}

#[test]
fn default_hasher_bad_and_good() {
    let bad = analyze(SIM_CRATE, SIM_PATH, include_str!("corpus/hasher_bad.rs"));
    assert_eq!(
        rules_of(&bad),
        vec![Rule::NoDefaultHasher, Rule::NoDefaultHasher]
    );
    let lines: Vec<u32> = bad.diagnostics.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![1, 4], "the `use` and the `::new()`");
    assert!(bad.diagnostics.iter().all(|d| d.severity == Severity::Deny));

    let good = analyze(SIM_CRATE, SIM_PATH, include_str!("corpus/hasher_good.rs"));
    assert!(good.diagnostics.is_empty(), "{:?}", good.diagnostics);
}

#[test]
fn default_hasher_is_only_a_warning_in_shell_crates() {
    let fa = analyze(
        "sc-bench",
        "crates/bench/src/corpus.rs",
        include_str!("corpus/hasher_bad.rs"),
    );
    assert!(!fa.diagnostics.is_empty());
    assert!(fa.diagnostics.iter().all(|d| d.severity == Severity::Warn));
}

#[test]
fn wall_clock_bad_and_good() {
    let bad = analyze(
        SIM_CRATE,
        SIM_PATH,
        include_str!("corpus/wall_clock_bad.rs"),
    );
    assert_eq!(rules_of(&bad), vec![Rule::NoWallClock, Rule::NoWallClock]);

    let good = analyze(
        SIM_CRATE,
        SIM_PATH,
        include_str!("corpus/wall_clock_good.rs"),
    );
    assert!(good.diagnostics.is_empty(), "{:?}", good.diagnostics);
}

#[test]
fn wall_clock_in_the_bench_shell_is_denied() {
    let fa = analyze(
        "sc-bench",
        "crates/bench/src/bin/fig5.rs",
        include_str!("corpus/wall_clock_bad.rs"),
    );
    assert_eq!(rules_of(&fa), vec![Rule::NoWallClock, Rule::NoWallClock]);
    assert!(fa.diagnostics.iter().all(|d| d.severity == Severity::Deny));
}

#[test]
fn ambient_randomness_bad_and_good() {
    let bad = analyze(
        SIM_CRATE,
        SIM_PATH,
        include_str!("corpus/randomness_bad.rs"),
    );
    assert_eq!(
        rules_of(&bad),
        vec![
            Rule::NoAmbientRandomness,
            Rule::NoAmbientRandomness,
            Rule::NoAmbientRandomness
        ],
        "thread_rng, OsRng and rand::random"
    );

    let good = analyze(
        SIM_CRATE,
        SIM_PATH,
        include_str!("corpus/randomness_good.rs"),
    );
    assert!(good.diagnostics.is_empty(), "{:?}", good.diagnostics);
}

#[test]
fn ambient_threading_bad_and_good() {
    let bad = analyze(SIM_CRATE, SIM_PATH, include_str!("corpus/threading_bad.rs"));
    assert_eq!(
        rules_of(&bad),
        vec![
            Rule::NoAmbientThreading,
            Rule::NoAmbientThreading,
            Rule::NoAmbientThreading,
            Rule::NoAmbientThreading
        ],
        "std::thread::spawn, thread::scope, thread::Builder and rayon"
    );
    assert!(bad.diagnostics.iter().all(|d| d.severity == Severity::Deny));

    // thread_local!, available_parallelism and test-only spawns stay legal.
    let good = analyze(
        SIM_CRATE,
        SIM_PATH,
        include_str!("corpus/threading_good.rs"),
    );
    assert!(good.diagnostics.is_empty(), "{:?}", good.diagnostics);
}

#[test]
fn ambient_print_bad_and_good() {
    let bad = analyze(SIM_CRATE, SIM_PATH, include_str!("corpus/print_bad.rs"));
    assert_eq!(
        rules_of(&bad),
        vec![
            Rule::NoAmbientPrint,
            Rule::NoAmbientPrint,
            Rule::NoAmbientPrint
        ],
        "println!, eprintln! and dbg!"
    );
    assert!(bad.diagnostics.iter().all(|d| d.severity == Severity::Deny));

    // Trace/metrics emission, a `dbg` local, and test prints stay legal.
    let good = analyze(SIM_CRATE, SIM_PATH, include_str!("corpus/print_good.rs"));
    assert!(good.diagnostics.is_empty(), "{:?}", good.diagnostics);
}

#[test]
fn ambient_print_exempts_clis_and_shell_crates() {
    let src = include_str!("corpus/print_bad.rs");
    // A `bin/` CLI inside a Sim-kind crate prints by design.
    let cli = analyze("sc-scenarios", "crates/scenarios/src/bin/report.rs", src);
    assert!(cli.diagnostics.is_empty(), "{:?}", cli.diagnostics);
    // Shell crates are CLIs wholesale.
    let shell = analyze("sc-bench", "crates/bench/src/lib.rs", src);
    assert!(shell.diagnostics.is_empty(), "{:?}", shell.diagnostics);
    // Library code in a Sim crate still denies.
    let lib = analyze("sc-scenarios", "crates/scenarios/src/runner.rs", src);
    assert!(!lib.diagnostics.is_empty());
}

#[test]
fn ambient_threading_exempts_only_the_suite_runners() {
    let src = include_str!("corpus/threading_bad.rs");
    // The kernel obeys its own rule: one world, one thread.
    let sim = analyze("sc-sim", "crates/sim/src/world.rs", src);
    assert_eq!(rules_of(&sim), vec![Rule::NoAmbientThreading; 4]);
    assert!(sim.diagnostics.iter().all(|d| d.severity == Severity::Deny));
    // The suite runner fans independent trials across a pool.
    let fa = analyze("sc-scenarios", "crates/scenarios/src/runner.rs", src);
    assert!(fa.diagnostics.is_empty(), "{:?}", fa.diagnostics);
    // Same code anywhere else still denies, the bench shells' sweeps
    // included: they go through the runner's pool.
    for (krate, path) in [
        ("sc-scenarios", "crates/scenarios/src/builder.rs"),
        ("sc-lab", "crates/lab/src/harness.rs"),
        ("sc-bench", "crates/bench/src/bin/fig5.rs"),
    ] {
        let other = analyze(krate, path, src);
        assert!(!other.diagnostics.is_empty(), "{path}");
    }
}

#[test]
fn sync_primitives_fire_only_in_dataplane_crates() {
    let src = include_str!("corpus/sync_bad.rs");
    for (krate, path) in [
        ("sc-net", "crates/net/src/corpus.rs"),
        ("sc-sim", "crates/sim/src/corpus.rs"),
        ("sc-openflow", "crates/openflow/src/corpus.rs"),
        ("sc-router", "crates/router/src/corpus.rs"),
        ("sc-traffic", "crates/traffic/src/corpus.rs"),
        ("sc-bfd", "crates/bfd/src/corpus.rs"),
    ] {
        let bad = analyze(krate, path, src);
        assert_eq!(rules_of(&bad), vec![Rule::NoSyncInDataplane; 4], "{krate}");
        let lines: Vec<u32> = bad.diagnostics.iter().map(|d| d.line).collect();
        assert_eq!(
            lines,
            vec![1, 3, 5, 8],
            "one a line: the `use`, `Arc<..>`, the atomic, `Mutex<..>`"
        );
        assert!(bad.diagnostics.iter().all(|d| d.severity == Severity::Deny));
    }
    // Above the kernel, suite workers do share input bytes.
    for (krate, path) in [
        ("sc-scenarios", "crates/scenarios/src/builder.rs"),
        ("sc-bgp", "crates/bgp/src/attrs.rs"),
    ] {
        let fa = analyze(krate, path, src);
        assert!(fa.diagnostics.is_empty(), "{krate}: {:?}", fa.diagnostics);
    }

    // `Rc`/`Cell`, a function named `sync`, decoys in comments and
    // strings, and test code stay legal.
    let good = analyze(
        "sc-net",
        "crates/net/src/corpus.rs",
        include_str!("corpus/sync_good.rs"),
    );
    assert!(good.diagnostics.is_empty(), "{:?}", good.diagnostics);
}

#[test]
fn layering_fires_only_in_sans_io_crates() {
    let src = include_str!("corpus/layering_bad.rs");
    let bad = analyze("sc-bgp", "crates/bgp/src/corpus.rs", src);
    assert_eq!(rules_of(&bad), vec![Rule::Layering]);

    // A device/orchestration crate may drive channels directly.
    let lab = analyze("sc-lab", "crates/lab/src/corpus.rs", src);
    assert!(lab.diagnostics.is_empty(), "{:?}", lab.diagnostics);

    let good = analyze(
        "sc-bgp",
        "crates/bgp/src/corpus.rs",
        include_str!("corpus/layering_good.rs"),
    );
    assert!(good.diagnostics.is_empty(), "{:?}", good.diagnostics);
}

#[test]
fn raw_absolute_timer_fires_only_in_node_crates() {
    let src = include_str!("corpus/timer_bad.rs");
    for (krate, path) in [
        ("supercharger", "crates/core/src/corpus.rs"),
        ("sc-router", "crates/router/src/corpus.rs"),
        ("sc-openflow", "crates/openflow/src/corpus.rs"),
    ] {
        let bad = analyze(krate, path, src);
        assert_eq!(rules_of(&bad), vec![Rule::RawAbsoluteTimer], "{krate}");
        assert_eq!(bad.diagnostics[0].line, 5);
        assert_eq!(bad.diagnostics[0].severity, Severity::Deny);
    }
    // The kernel defines the call and `Wakeup` makes it; a traffic
    // source ticks a fixed schedule.
    for (krate, path) in [
        ("sc-sim", "crates/sim/src/wakeup.rs"),
        ("sc-traffic", "crates/traffic/src/lib.rs"),
    ] {
        let fa = analyze(krate, path, src);
        assert!(fa.diagnostics.is_empty(), "{krate}: {:?}", fa.diagnostics);
    }

    // `Wakeup::arm`, `set_timer_after` and test code stay legal.
    let good = analyze(SIM_CRATE, SIM_PATH, include_str!("corpus/timer_good.rs"));
    assert!(good.diagnostics.is_empty(), "{:?}", good.diagnostics);
}

#[test]
fn unsafe_needs_safety_comment() {
    let bad = analyze(SIM_CRATE, SIM_PATH, include_str!("corpus/unsafe_bad.rs"));
    assert_eq!(rules_of(&bad), vec![Rule::UnsafeNeedsSafetyComment]);

    let good = analyze(SIM_CRATE, SIM_PATH, include_str!("corpus/unsafe_good.rs"));
    assert!(good.diagnostics.is_empty(), "{:?}", good.diagnostics);
}

#[test]
fn allow_needs_justification() {
    let bad = analyze(SIM_CRATE, SIM_PATH, include_str!("corpus/allow_bad.rs"));
    assert_eq!(rules_of(&bad), vec![Rule::AllowNeedsJustification]);

    let good = analyze(SIM_CRATE, SIM_PATH, include_str!("corpus/allow_good.rs"));
    assert!(good.diagnostics.is_empty(), "{:?}", good.diagnostics);
}

#[test]
fn wellformed_waivers_suppress_and_are_counted() {
    let fa = analyze(SIM_CRATE, SIM_PATH, include_str!("corpus/waiver_good.rs"));
    assert!(fa.diagnostics.is_empty(), "{:?}", fa.diagnostics);
    assert_eq!(fa.waived, 2, "standing + trailing waiver");
}

#[test]
fn malformed_waivers_error_and_do_not_waive() {
    let fa = analyze(SIM_CRATE, SIM_PATH, include_str!("corpus/waiver_bad.rs"));
    let syntax = rules_of(&fa)
        .iter()
        .filter(|r| **r == Rule::WaiverSyntax)
        .count();
    assert_eq!(
        syntax, 3,
        "missing reason, unknown rule, wrong verb: {fa:?}"
    );
    assert!(
        rules_of(&fa).contains(&Rule::NoWallClock),
        "a broken waiver must not suppress the finding it sat on: {fa:?}"
    );
    assert_eq!(fa.waived, 0);
}

#[test]
fn test_code_is_exempt_but_cfg_not_test_is_not() {
    let good = analyze(
        SIM_CRATE,
        SIM_PATH,
        include_str!("corpus/test_code_good.rs"),
    );
    assert!(good.diagnostics.is_empty(), "{:?}", good.diagnostics);

    let bad = analyze(
        SIM_CRATE,
        SIM_PATH,
        include_str!("corpus/cfg_not_test_bad.rs"),
    );
    assert_eq!(rules_of(&bad), vec![Rule::NoWallClock, Rule::NoWallClock]);
}

#[test]
fn hazard_names_in_literals_and_comments_are_invisible() {
    let fa = analyze(SIM_CRATE, SIM_PATH, include_str!("corpus/decoys_good.rs"));
    assert!(fa.diagnostics.is_empty(), "{:?}", fa.diagnostics);
    assert_eq!(fa.waived, 0);
}
