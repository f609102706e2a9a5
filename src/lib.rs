//! # supercharged-router
//!
//! A full reproduction of *"Supercharge me: Boost Router Convergence with
//! SDN"* (Chang, Holterbach, Happe, Vanbever — SIGCOMM 2015,
//! arXiv:1505.06630) as a Rust workspace.
//!
//! This facade crate re-exports every workspace crate under one roof so
//! examples and downstream users can depend on a single package:
//!
//! * [`net`] — base types and wire formats (Ethernet, ARP, IPv4, UDP),
//!   the FIB's longest-prefix-match trie, virtual time, reliable channel.
//! * [`sim`] — the deterministic discrete-event simulation kernel.
//! * [`bgp`] — BGP-4: messages, session FSM, RIBs, decision process.
//! * [`bfd`] — RFC 5880 failure detection.
//! * [`openflow`] — the SDN switch substrate.
//! * [`router`] — the legacy router model with calibrated FIB timing.
//! * [`supercharger`] — **the paper's contribution**: backup-group
//!   computation, VNH/VMAC provisioning, ARP responder, and the
//!   data-plane failover procedure.
//! * [`traffic`] — FPGA-like traffic source/sink and gap measurement.
//! * [`mrt`] — RFC 6396 MRT dump reader/writer and timed route replay.
//! * [`routegen`] — synthetic RIPE-RIS-style route feeds and MRT
//!   fixture export.
//! * [`invariant`] — the continuous convergence-invariant engine:
//!   in-window FIB walks classifying blackholes, loops and transit
//!   violations.
//! * [`lab`] — the Fig. 4 lab's address plan, the measurement
//!   harness, and statistics.
//! * [`scenarios`] — the declarative scenario engine: topology
//!   generators (the Fig. 4 lab among them), failure scripts, and the
//!   suite runner.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```no_run
//! use supercharged_router::lab::Mode;
//! use supercharged_router::scenarios::{run_scenario, EventScript, ScenarioConfig, TopologySpec};
//!
//! let cfg = ScenarioConfig { prefixes: 10_000, ..ScenarioConfig::default() };
//! let cut = EventScript::primary_cut();
//! let report = run_scenario(&TopologySpec::Fig4Lab, &cut, Mode::Supercharged, &cfg);
//! println!("median convergence: {}", report.stats().median);
//! ```

pub use sc_bfd as bfd;
pub use sc_bgp as bgp;
pub use sc_invariant as invariant;
pub use sc_lab as lab;
pub use sc_mrt as mrt;
pub use sc_net as net;
pub use sc_openflow as openflow;
pub use sc_routegen as routegen;
pub use sc_router as router;
pub use sc_scenarios as scenarios;
pub use sc_sim as sim;
pub use sc_traffic as traffic;
pub use supercharger;
