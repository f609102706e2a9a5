//! **sc-scenarios** — the declarative scenario engine.
//!
//! The paper evaluates supercharged convergence on exactly one hardware
//! topology (Fig. 4). This crate turns that single reproduction into a
//! general convergence-evaluation platform, in three layers:
//!
//! * [`topo`] — parametric **topology generators**: the Fig. 4 lab,
//!   linear chains and IXP-style hub fan-outs (the paper's §5
//!   "boosting an IXP" case). Every generator elaborates to a
//!   [`topo::Blueprint`] (each provider's identity and links as data)
//!   that the one [`builder`] wires into a deterministic
//!   [`sc_sim::World`] with real BGP provider routers, a static-route
//!   delivery fabric, and — in supercharged mode — the controller(s).
//! * [`events`] — typed **event scripts** (link cut,
//!   link flap, node crash, session reset, withdraw/churn bursts,
//!   controller-replica crashes, seeded chaos) compiled down to `World`
//!   failure injections; the paper's own experiment is
//!   [`EventScript::primary_cut`].
//! * [`runner`] — the **suite runner**: a matrix of (topology × script
//!   × mode ∈ {legacy, supercharged}) trials, per-flow gap measurement
//!   through the `sc-traffic` sink, box statistics per scenario, and
//!   CSV + JSON reports.
//!
//! Feeds come from [`builder::FeedSource`]: deterministic synthetic
//! tables (the default), or `FeedSource::MrtSnapshot` — an RFC 6396
//! MRT `TABLE_DUMP_V2` RIB snapshot (a RIS `bview`) seeding the
//! provider tables. Churn on live sessions is scripted
//! ([`ScenarioEvent::ChurnBurst`]).
//!
//! ## Quickstart
//!
//! ```no_run
//! use sc_scenarios::{run_suite, EventScript, Mode, ScenarioConfig, SuiteConfig, TopologySpec};
//!
//! let report = run_suite(&SuiteConfig {
//!     topologies: vec![TopologySpec::Fig4Lab, TopologySpec::IxpHub { peers: 3 }],
//!     scripts: vec![EventScript::primary_cut()],
//!     modes: vec![Mode::Stock, Mode::Supercharged],
//!     base: ScenarioConfig::default(),
//!     workers: None,
//! });
//! println!("{}", report.to_csv_stable());
//! for (topo, script, x) in report.speedups() {
//!     println!("{topo}/{script}: supercharging is {x:.0}x faster");
//! }
//! ```

pub mod builder;
pub mod events;
pub mod json;
pub mod phases;
pub mod runner;
pub mod topo;

pub use builder::{build_scenario, BuiltScenario, FeedSource, ScenarioConfig};
pub use events::{EventScript, LinkRef, NodeRef, ProviderSel, ScenarioEvent};
pub use phases::{reconstruct_cycle, CyclePhases};
pub use runner::{
    expected_budget, mode_label, run_scenario, run_scenario_traced, run_suite, run_suite_with,
    run_trials, CycleOutcome, ScenarioOutcome, SuiteConfig, SuiteReport, TraceArtifacts, Trial,
    TrialError, TrialResult,
};
pub use sc_invariant::{InvariantReport, ViolationClass, WindowViolations};
pub use sc_lab::Mode;
pub use topo::{Blueprint, TopologySpec};
