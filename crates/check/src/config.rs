//! Per-crate policy: which severity each rule carries in each crate,
//! the layering ranks the import graph must respect, and the one file
//! allowed to spawn threads.
//!
//! The table is source, not a config file, on purpose: policy changes
//! are code-reviewed diffs next to the rules they tune, and the checker
//! stays dependency-free (no TOML parser needed beyond the 20-line
//! `[dependencies]` scanner in `workspace.rs`).

use crate::rules::Rule;

/// How a finding is treated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Rule disabled here: no diagnostic at all.
    Allow,
    /// Reported, but `--deny` does not fail on it.
    Warn,
    /// Reported; `--deny` exits non-zero.
    Deny,
}

impl Severity {
    pub fn label(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// What role a crate plays, which decides its default severities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrateKind {
    /// Simulation/core logic: everything must be a pure function of the
    /// seed, so all determinism rules deny.
    Sim,
    /// Outermost shells (bench harnesses, this checker): they only
    /// report results, so hasher determinism is a warning, not a
    /// failure.
    Shell,
}

/// One workspace crate the checker knows about.
pub struct CrateInfo {
    /// Package name as in `Cargo.toml` (`supercharger`, not `core`).
    pub name: &'static str,
    /// Directory under `crates/`.
    pub dir: &'static str,
    /// Layering rank: a crate may only depend on strictly lower ranks.
    pub layer: u8,
    pub kind: CrateKind,
}

/// The workspace layering map (mirrors ROADMAP's architecture: wire
/// types < kernel/protocol state machines < devices < measurement <
/// shells). `cargo run -p sc-check` fails if `Cargo.toml` grows an
/// edge that flows upward or sideways.
pub const CRATES: &[CrateInfo] = &[
    ci("sc-net", "net", 0, CrateKind::Sim),
    ci("sc-sim", "sim", 1, CrateKind::Sim),
    ci("sc-bgp", "bgp", 1, CrateKind::Sim),
    ci("sc-bfd", "bfd", 1, CrateKind::Sim),
    ci("sc-mrt", "mrt", 2, CrateKind::Sim),
    ci("sc-openflow", "openflow", 2, CrateKind::Sim),
    ci("sc-traffic", "traffic", 2, CrateKind::Sim),
    ci("sc-router", "router", 3, CrateKind::Sim),
    ci("supercharger", "core", 3, CrateKind::Sim),
    ci("sc-routegen", "routegen", 3, CrateKind::Sim),
    ci("sc-invariant", "invariant", 4, CrateKind::Sim),
    ci("sc-lab", "lab", 5, CrateKind::Sim),
    ci("sc-scenarios", "scenarios", 6, CrateKind::Sim),
    ci("sc-bench", "bench", 7, CrateKind::Shell),
    ci("sc-check", "check", 7, CrateKind::Shell),
];

const fn ci(name: &'static str, dir: &'static str, layer: u8, kind: CrateKind) -> CrateInfo {
    CrateInfo {
        name,
        dir,
        layer,
        kind,
    }
}

/// Look up a crate by package name. Unknown crates (a future PR's new
/// crate before this table learns about it) default to the strict
/// `Sim` policy with no layering rank — determinism rules apply from
/// the crate's first commit.
pub fn crate_info(name: &str) -> Option<&'static CrateInfo> {
    CRATES.iter().find(|c| c.name == name)
}

/// Crates whose state machines must stay transport-agnostic: naming
/// `sc_net::channel` types here blocks the sans-io refactor (ROADMAP:
/// "Sans-io core + real-I/O shell").
pub const SANS_IO_CRATES: &[&str] = &["sc-bgp", "sc-bfd", "supercharger"];

/// The protocol-bearing node crates: their timers guard deadlines that
/// received packets move, so an absolute timer armed by hand there
/// (`Ctx::set_timer_at`) bypasses the `sc_sim::Wakeup` discipline and
/// `raw-absolute-timer` denies it. Elsewhere (the kernel itself, traffic
/// sources ticking a fixed schedule) the rule is off.
pub const WAKEUP_CRATES: &[&str] = &["supercharger", "sc-router", "sc-openflow"];

/// The crates every simulated event runs through. A world is built, run
/// and dropped on one thread (PR 18 deleted the sharded kernel), so an
/// `Arc`, a lock or an atomic here buys a thread-safety no caller uses
/// and charges every packet hop for it: `no-sync-in-dataplane` denies
/// them. Bytes shared between suite workers live above the kernel, in
/// `sc-scenarios`.
pub const DATAPLANE_CRATES: &[&str] = &[
    "sc-net",
    "sc-sim",
    "sc-openflow",
    "sc-router",
    "sc-traffic",
    "sc-bfd",
];

/// Files allowed to spawn threads: the suite runner, which fans whole
/// independent trials out across a worker pool. Everything else — the
/// kernel included — must stay single-threaded: `no-ambient-threading`
/// denies `thread::spawn`/`scope`/`Builder` and `rayon`.
pub const THREADING_ALLOWLIST: &[&str] = &["crates/scenarios/src/runner.rs"];

/// The severity of `rule` inside `crate_name`.
pub fn severity(rule: Rule, crate_name: &str) -> Severity {
    let kind = crate_info(crate_name)
        .map(|c| c.kind)
        .unwrap_or(CrateKind::Sim);
    match (rule, kind) {
        // Hashers: sim/core crates must be deterministic; shells only
        // report results (their maps never feed back into a trial), so
        // a stray HashMap there is noise worth flagging, not a failure.
        (Rule::NoDefaultHasher, CrateKind::Sim) => Severity::Deny,
        (Rule::NoDefaultHasher, CrateKind::Shell) => Severity::Warn,
        // Wall clock: denied everywhere, the bench shell included —
        // wall time is the perf ledger's (`benchmark/`), outside the
        // workspace.
        (Rule::NoWallClock, _) => Severity::Deny,
        // Ambient randomness: even benches must be seeded — perf worlds
        // are replayed for byte-identical event streams.
        (Rule::NoAmbientRandomness, _) => Severity::Deny,
        // Threading: denied everywhere, the kernel included; the
        // runner files are carved out in the engine.
        (Rule::NoAmbientThreading, _) => Severity::Deny,
        // Printing: simulation code must speak through sc-trace /
        // metrics, never ambient stdio (output interleaves across suite
        // workers and is invisible to the determinism contract). Shells
        // are CLIs — printing is their job; `bin/` files are carved out
        // in the engine.
        (Rule::NoAmbientPrint, CrateKind::Sim) => Severity::Deny,
        (Rule::NoAmbientPrint, CrateKind::Shell) => Severity::Allow,
        (Rule::NoSyncInDataplane, _) if DATAPLANE_CRATES.contains(&crate_name) => Severity::Deny,
        (Rule::NoSyncInDataplane, _) => Severity::Allow,
        (Rule::Layering, _) => Severity::Deny,
        (Rule::RawAbsoluteTimer, _) if WAKEUP_CRATES.contains(&crate_name) => Severity::Deny,
        (Rule::RawAbsoluteTimer, _) => Severity::Allow,
        (Rule::UnsafeNeedsSafetyComment, _) => Severity::Deny,
        (Rule::AllowNeedsJustification, _) => Severity::Deny,
        // A malformed waiver is always an error: a waiver that silently
        // fails to parse would silently stop waiving.
        (Rule::WaiverSyntax, _) => Severity::Deny,
    }
}
