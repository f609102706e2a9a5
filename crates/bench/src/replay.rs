//! The `replay` bin's entry point: an MRT archive pair becomes a
//! scenario suite.
//!
//! The archives — the committed `tests/fixtures/*.mrt` pair, or a
//! RIS-shaped pair generated in memory by `sc_routegen::mrt` — ride
//! `FeedSource::MrtReplay` on an IXP hub: the `TABLE_DUMP_V2` snapshot
//! seeds every participant's table, and the `BGP4MP_ET` trace is
//! replayed on the converged world at its recorded (warpable)
//! inter-arrival timing, each burst measured in its own convergence
//! window, legacy and supercharged. The world itself is
//! `sc_scenarios::build_scenario`'s; nothing here wires a node.

use sc_lab::Mode;
use sc_mrt::{RibSnapshot, TimeScale};
use sc_routegen::mrt::{rib_snapshot_mrt, update_trace_mrt, MrtExportConfig};
use sc_scenarios::{
    EventScript, FeedSource, MrtReplayFeed, ScenarioConfig, SuiteConfig, TopologySpec,
};

/// Parameters of a replay run.
#[derive(Clone, Copy, Debug)]
pub struct ReplayParams {
    /// Shape of the generated archive pair. With fixtures only `peers`
    /// (a cap on the participant count) and `seed` are read.
    pub archive: MrtExportConfig,
    /// Warp on recorded inter-arrival gaps.
    pub time_scale: TimeScale,
}

impl ReplayParams {
    /// Full recorded tables on 12 sessions and a 3000-burst trace at
    /// millisecond inter-arrivals.
    pub fn paper() -> ReplayParams {
        ReplayParams {
            archive: MrtExportConfig {
                prefixes: 2_000,
                seed: 42,
                peers: 12,
                bursts: 3_000,
                burst_prefixes: 10,
                burst_gap_us: 2_000,
                ..MrtExportConfig::fixture()
            },
            time_scale: TimeScale::REAL,
        }
    }

    /// Seconds-scale CI variant.
    pub fn smoke() -> ReplayParams {
        ReplayParams {
            archive: MrtExportConfig {
                prefixes: 1_000,
                peers: 8,
                bursts: 500,
                burst_prefixes: 20,
                ..ReplayParams::paper().archive
            },
            ..ReplayParams::paper()
        }
    }
}

/// The archive pair `(rib, trace)` generated from the parameters.
pub fn generated_archives(p: &ReplayParams) -> (Vec<u8>, Vec<u8>) {
    (rib_snapshot_mrt(&p.archive), update_trace_mrt(&p.archive))
}

/// The committed fixture pair `(rib, trace)`.
pub fn fixture_archives() -> (Vec<u8>, Vec<u8>) {
    let read = |name: &str| {
        let path = format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    };
    (read("ris_rib.mrt"), read("ris_updates.mrt"))
}

/// The suite that replays `(rib, trace)`: one IXP hub with a
/// participant per recorded peer (at most `archive.peers`), no scripted
/// failure, both modes.
pub fn replay_suite(p: &ReplayParams, rib: Vec<u8>, trace: Vec<u8>) -> SuiteConfig {
    let recorded = RibSnapshot::load(&rib)
        .unwrap_or_else(|e| panic!("MRT RIB snapshot: {e}"))
        .peers
        .len();
    let feed = MrtReplayFeed {
        time_scale: p.time_scale,
        ..MrtReplayFeed::new(rib, trace)
    };
    SuiteConfig {
        topologies: vec![TopologySpec::IxpHub {
            peers: recorded.min(p.archive.peers as usize),
        }],
        scripts: vec![EventScript::new("replay", Vec::new())],
        modes: vec![Mode::Stock, Mode::Supercharged],
        base: ScenarioConfig {
            flows: 8,
            seed: p.archive.seed,
            feed: FeedSource::MrtReplay(feed),
            ..ScenarioConfig::default()
        },
        workers: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_scenarios::{run_suite, SuiteReport};

    fn tiny() -> ReplayParams {
        ReplayParams {
            archive: MrtExportConfig {
                prefixes: 300,
                seed: 7,
                peers: 2,
                bursts: 6,
                burst_prefixes: 25,
                burst_gap_us: 600_000,
                ..MrtExportConfig::fixture()
            },
            ..ReplayParams::paper()
        }
    }

    fn run(p: &ReplayParams, (rib, trace): (Vec<u8>, Vec<u8>)) -> SuiteReport {
        let report = run_suite(&replay_suite(p, rib, trace));
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        report
    }

    #[test]
    fn replay_world_loads_tables_and_churns() {
        let p = tiny();
        let report = run(&p, generated_archives(&p));
        assert_eq!(report.rows.len(), 2, "legacy and supercharged");
        for row in &report.rows {
            assert_eq!(row.topology, "ixp2");
            assert_eq!(row.prefixes, 300, "the snapshot sizes the table");
            assert_eq!(row.cycles.len(), 6, "one window per recorded burst");
            // A withdrawal over a live session moves flows to the
            // backup without breaking the path: probes kept arriving.
            assert_eq!(row.unrecovered, 0);
            assert!(row.per_flow.iter().all(|g| !g.is_zero()));
        }
    }

    /// The fixtures twice: the stable report — what `replay --out`
    /// writes — is the same bytes. Any queue popping in key order would
    /// write them too: the wheel's debug-build order check holds every
    /// pop to that order.
    #[test]
    fn replay_is_byte_identical_across_reruns_and_schedulers() {
        let stable = || run(&ReplayParams::smoke(), fixture_archives()).to_json_stable();
        assert_eq!(stable(), stable(), "rerun");
    }

    /// Warping the trace compresses virtual time without changing the
    /// logical work: the same bursts arrive, just denser.
    #[test]
    fn time_scale_compresses_without_losing_work() {
        let span = |time_scale: &str| {
            let p = ReplayParams {
                time_scale: time_scale.parse().unwrap(),
                ..tiny()
            };
            let report = run(&p, generated_archives(&p));
            let cycles = &report.rows[0].cycles;
            assert_eq!(cycles.len(), 6);
            cycles[5].fail_at - cycles[0].fail_at
        };
        let (real, fast) = (span("1"), span("0.5"));
        // Each offset is warped on its own, so allow the rounding.
        assert!(fast.as_nanos().abs_diff(real.as_nanos() / 2) <= 1);
    }

    /// The committed fixtures drive the same world.
    #[test]
    fn fixtures_build_a_replay_world() {
        let report = run(&ReplayParams::smoke(), fixture_archives());
        for row in &report.rows {
            assert_eq!(row.topology, "ixp2", "the fixture records two peers");
            assert_eq!(row.prefixes, 256);
            assert_eq!(row.cycles.len(), 24);
            assert_eq!(row.unrecovered, 0);
        }
    }
}
