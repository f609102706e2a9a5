//! The committed MRT fixture is byte-reproducible from the generator:
//! [`write_mrt_fixtures`] must always rewrite exactly what is in git,
//! and the fixture must load as a RIB snapshot.

use sc_mrt::RibSnapshot;
use sc_routegen::mrt::{rib_snapshot_mrt, MrtExportConfig};
use sc_routegen::prefix_universe;

/// The workspace's `tests/fixtures/`, where the scenario tests read the
/// snapshot from.
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
    assert_eq!(
        fixture("ris_rib.mrt"),
        rib_snapshot_mrt(&MrtExportConfig::fixture()),
        "committed ris_rib.mrt differs from the generator — rerun `{REWRITE}`"
    );
}

/// Rewrites `ris_rib.mrt` (a `TABLE_DUMP_V2` RIB snapshot) from
/// `MrtExportConfig::fixture()`, after a deliberate generator change.
/// It is a pure function of the config, so a rerun writes the same
/// bytes.
#[test]
#[ignore = "writes the committed fixture; run by hand after a generator change"]
fn write_mrt_fixtures() {
    let path = fixture_path("ris_rib.mrt");
    std::fs::write(&path, rib_snapshot_mrt(&MrtExportConfig::fixture()))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
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
