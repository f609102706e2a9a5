//! The workspace rules that live in manifests and config files, which
//! neither rustc nor clippy reads as a whole:
//!
//! * the crate graph points down: every `[dependencies]` edge of a
//!   `crates/*/Cargo.toml` goes to a crate of strictly lower rank (wire
//!   types < kernel and protocol state machines < devices < measurement
//!   < shells); `[dev-dependencies]` may reach anywhere;
//! * a crate's own `clippy.toml` replaces the root one wholesale, so it
//!   must repeat the root's lists, differing only as [`OWN_CLIPPY`]
//!   says.

use std::fs;
use std::path::{Path, PathBuf};

/// Every workspace crate's rank. A new crate needs one before it builds.
const RANKS: &[(&str, u8)] = &[
    ("sc-net", 0),
    ("sc-sim", 1),
    ("sc-bgp", 1),
    ("sc-bfd", 1),
    ("sc-mrt", 2),
    ("sc-openflow", 2),
    ("sc-traffic", 2),
    ("sc-router", 3),
    ("supercharger", 3),
    ("sc-routegen", 3),
    ("sc-invariant", 4),
    ("sc-lab", 5),
    ("sc-scenarios", 6),
    ("sc-bench", 7),
];

/// The crates with their own `clippy.toml`: (directory, denies the
/// `sc_net::channel` types (sans-io), allows the `std::sync` types).
const OWN_CLIPPY: &[(&str, bool, bool)] = &[
    ("bfd", true, false),
    ("bgp", true, true),
    ("core", true, true),
    ("mrt", false, true),
    ("routegen", false, true),
    ("scenarios", false, true),
];

fn crate_dirs() -> Vec<PathBuf> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut dirs: Vec<PathBuf> = fs::read_dir(crates)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

fn rank(name: &str) -> Option<u8> {
    RANKS.iter().find(|(n, _)| *n == name).map(|&(_, r)| r)
}

/// A manifest's package name and its `[dependencies]` keys.
fn manifest(text: &str) -> (String, Vec<String>) {
    let (mut section, mut name, mut deps) = ("", String::new(), Vec::new());
    for line in text.lines().map(str::trim) {
        if let Some(s) = line.strip_prefix('[') {
            section = s.trim_end_matches(']');
            continue;
        }
        let key = line.split(['.', '=', ' ']).next().unwrap_or("");
        match section {
            "package" if key == "name" => name = line.split('"').nth(1).unwrap().to_string(),
            "dependencies" if !key.is_empty() && !key.starts_with('#') => deps.push(key.into()),
            _ => {}
        }
    }
    (name, deps)
}

#[test]
fn dependencies_point_strictly_down_the_crate_ranks() {
    let mut names = Vec::new();
    let mut upward = Vec::new();
    for dir in crate_dirs() {
        let (name, deps) = manifest(&fs::read_to_string(dir.join("Cargo.toml")).unwrap());
        let me = rank(&name).unwrap_or_else(|| panic!("crate `{name}` has no rank in RANKS"));
        for dep in deps {
            match rank(&dep) {
                Some(them) if them >= me => {
                    upward.push(format!("{name} (rank {me}) -> {dep} (rank {them})"))
                }
                _ => {}
            }
        }
        names.push(name);
    }
    assert!(
        upward.is_empty(),
        "dependencies must point strictly down the crate ranks; move shared \
         types into a lower crate instead:\n{}",
        upward.join("\n")
    );
    assert_eq!(names.len(), RANKS.len(), "RANKS lists a crate that is gone");
}

/// The `{ path = … }` entries of a `clippy.toml`, sorted.
fn entries(text: &str, keep: impl Fn(&str) -> bool) -> Vec<String> {
    let mut out: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{ path = ") && keep(l))
        .map(String::from)
        .collect();
    out.sort();
    out
}

#[test]
fn crate_clippy_tomls_repeat_the_root_lists() {
    let root = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../clippy.toml"))
        .unwrap();
    let mut seen = 0;
    for dir in crate_dirs() {
        let Ok(own) = fs::read_to_string(dir.join("clippy.toml")) else {
            continue;
        };
        let dir_name = dir.file_name().unwrap().to_string_lossy().into_owned();
        let &(_, sans_io, sync_allowed) = OWN_CLIPPY
            .iter()
            .find(|(d, _, _)| *d == dir_name)
            .unwrap_or_else(|| panic!("crates/{dir_name}/clippy.toml is not in OWN_CLIPPY"));
        let is_chan = |l: &str| l.contains("\"sc_net::channel::");
        let is_sync = |l: &str| l.contains("\"std::sync::");
        assert_eq!(
            entries(&own, is_chan).is_empty(),
            !sans_io,
            "crates/{dir_name}/clippy.toml: the sans-io list"
        );
        assert_eq!(
            entries(&own, |l| !is_chan(l)),
            entries(&root, |l| !(sync_allowed && is_sync(l))),
            "crates/{dir_name}/clippy.toml drifted from the root clippy.toml"
        );
        seen += 1;
    }
    assert_eq!(
        seen,
        OWN_CLIPPY.len(),
        "OWN_CLIPPY lists a file that is gone"
    );
}
