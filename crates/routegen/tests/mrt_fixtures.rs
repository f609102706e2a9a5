//! The committed MRT fixtures are byte-reproducible from the
//! generator: [`write_mrt_fixtures`] must always rewrite exactly what
//! is in git, and the fixtures must load through the replay pipeline.

use sc_mrt::{ReplaySchedule, RibSnapshot, TimeScale};
use sc_routegen::mrt::{rib_snapshot_mrt, update_trace_mrt, MrtExportConfig};
use sc_routegen::prefix_universe;

/// The workspace's `tests/fixtures/`, where the replay bin and the
/// scenario tests read the pair from.
fn fixture_path(name: &str) -> String {
    format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn fixture(name: &str) -> Vec<u8> {
    let path = fixture_path(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

const REWRITE: &str =
    "cargo test -p sc-routegen --test mrt_fixtures -- --ignored write_mrt_fixtures";

#[test]
fn mrt_fixtures_are_byte_reproducible() {
    let cfg = MrtExportConfig::fixture();
    assert_eq!(
        fixture("ris_rib.mrt"),
        rib_snapshot_mrt(&cfg),
        "committed ris_rib.mrt differs from the generator — rerun `{REWRITE}`"
    );
    assert_eq!(
        fixture("ris_updates.mrt"),
        update_trace_mrt(&cfg),
        "committed ris_updates.mrt differs from the generator — rerun `{REWRITE}`"
    );
}

/// Rewrites `ris_rib.mrt` (a `TABLE_DUMP_V2` RIB snapshot) and
/// `ris_updates.mrt` (a bursty `BGP4MP_ET` update trace) from
/// `MrtExportConfig::fixture()`, after a deliberate generator change.
/// Both are pure functions of the config, so a rerun writes the same
/// bytes.
#[test]
#[ignore = "writes the committed fixtures; run by hand after a generator change"]
fn write_mrt_fixtures() {
    let cfg = MrtExportConfig::fixture();
    for (name, bytes) in [
        ("ris_rib.mrt", rib_snapshot_mrt(&cfg)),
        ("ris_updates.mrt", update_trace_mrt(&cfg)),
    ] {
        let path = fixture_path(name);
        std::fs::write(&path, bytes).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
}

#[test]
fn rib_fixture_is_a_loadable_snapshot() {
    let cfg = MrtExportConfig::fixture();
    let snap = RibSnapshot::load(&fixture("ris_rib.mrt")).unwrap();
    assert_eq!(snap.peers.len(), cfg.peers as usize);
    assert_eq!(snap.prefixes(), prefix_universe(cfg.prefixes, cfg.seed));
    for pi in 0..cfg.peers {
        assert_eq!(
            snap.routes_for_peer(pi).len(),
            cfg.prefixes as usize,
            "peer {pi} covers the full table"
        );
    }
}

#[test]
fn updates_fixture_is_a_bursty_trace() {
    let cfg = MrtExportConfig::fixture();
    let sched = ReplaySchedule::compile(&fixture("ris_updates.mrt"), TimeScale::REAL).unwrap();
    assert_eq!(
        sched.prefix_events(),
        2 * cfg.bursts as usize * cfg.burst_prefixes as usize,
        "every burst withdraws then re-announces its slice"
    );
    let epochs = sched.epochs(sc_net::SimDuration::from_millis(100));
    assert_eq!(epochs.len(), cfg.bursts as usize, "one epoch per burst");
}
