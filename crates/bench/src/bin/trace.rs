//! **Trace export & metrics dump** — run one traced convergence cell
//! and emit the sc-trace observability artifacts, or diff two metrics
//! dumps.
//!
//! ```text
//! cargo run --release -p sc-bench --bin trace \
//!     [--topology chain|ixp|fig4] [--script cut|flap|chaos] \
//!     [--mode legacy|supercharged|both] [--prefixes N] [--flows N] \
//!     [--seed N] [--out DIR]
//! cargo run --release -p sc-bench --bin trace -- --diff A.json B.json
//! ```
//!
//! The run form executes the cell with the flight recorder on and
//! prints the per-cycle causal phase breakdown (detect → notify →
//! program → fib, summing exactly to each cycle's measured
//! convergence) plus the top metrics counters. With `--out DIR` it
//! writes, per mode:
//!
//! * `<mode>.trace.jsonl` — one JSON object per trace record;
//! * `<mode>.trace.json` — Chrome `trace_event` format: open in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! * `<mode>.metrics.json` — the counters registry.
//!
//! Every artifact is byte-reproducible across reruns: the kernel's own
//! counters (`kernel.events.*`, `kernel.node.<name>.timers_fired`)
//! count simulated work and are invariant like the rest.
//!
//! The `--diff` form compares the `counters` section of two metrics
//! dumps and prints one line per differing counter — the quickest way
//! to see what a config change did to the pipeline (e.g. legacy vs
//! supercharged flow-mod traffic, or retry counts under chaos).
#![allow(clippy::disallowed_macros, reason = "a CLI: printing is its job")]

use sc_bench::{fig5_label, Args, Table};
use sc_lab::Mode;
use sc_net::SimDuration;
use sc_scenarios::{
    mode_label, run_scenario_traced, EventScript, ScenarioConfig, TopologySpec, TraceArtifacts,
};

fn main() {
    let args = Args::parse();
    if args.flag("--diff") {
        let files: Vec<String> = std::env::args()
            .skip_while(|a| a != "--diff")
            .skip(1)
            .take(2)
            .collect();
        let [a, b] = files.as_slice() else {
            eprintln!("--diff needs two metrics.json paths");
            std::process::exit(2);
        };
        diff_metrics(a, b);
        return;
    }

    let prefixes: u32 = args.value("--prefixes", 1_000);
    let flows: usize = args.value("--flows", 20);
    let seed: u64 = args.value("--seed", 42);
    let chaos = args.raw_value("--script").as_deref() == Some("chaos");
    let topo = match args.raw_value("--topology").as_deref() {
        Some("ixp") => TopologySpec::IxpHub { peers: 4 },
        Some("fig4") => TopologySpec::Fig4Lab,
        Some("chain") | None => TopologySpec::Chain {
            providers: 2,
            hops: 1,
        },
        Some(other) => panic!("--topology {other:?}: expected chain|ixp|fig4"),
    };
    let script = match args.raw_value("--script").as_deref() {
        Some("flap") => EventScript::primary_flap(SimDuration::from_secs(3), 2),
        Some("chaos") => EventScript::chaos(seed),
        Some("cut") | None => EventScript::primary_cut(),
        Some(other) => panic!("--script {other:?}: expected cut|flap|chaos"),
    };
    let modes: Vec<Mode> = match args.raw_value("--mode").as_deref() {
        Some("legacy") => vec![Mode::Stock],
        Some("supercharged") => vec![Mode::Supercharged],
        Some("both") | None => vec![Mode::Stock, Mode::Supercharged],
        Some(other) => panic!("--mode {other:?}: expected legacy|supercharged|both"),
    };
    let cfg = ScenarioConfig {
        prefixes,
        flows,
        seed,
        trace: true,
        // The chaos preset switches on the full robustness stack, like
        // the scenarios binary's --chaos soak.
        echo_interval: chaos.then(|| SimDuration::from_millis(10)),
        controller_deadline: chaos.then(|| SimDuration::from_millis(50)),
        fallback_sessions: chaos,
        ..ScenarioConfig::default()
    };
    let out_dir = args.raw_value("--out");
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("--out dir");
    }

    let mut table = Table::new(&[
        "mode", "cycle", "conv", "detect", "notify", "program", "fib", "records",
    ]);
    for mode in modes {
        let (out, art) = run_scenario_traced(&topo, &script, mode, &cfg);
        let art = art.expect("trace enabled");
        let records = art.jsonl.lines().count().saturating_sub(1); // header line
        for (i, c) in out.cycles.iter().enumerate() {
            let conv = c
                .per_flow
                .iter()
                .copied()
                .max()
                .unwrap_or(SimDuration::ZERO);
            let ph = |d: Option<SimDuration>| d.map(fig5_label).unwrap_or_else(|| "-".into());
            table.row(vec![
                mode_label(mode).to_string(),
                i.to_string(),
                fig5_label(conv),
                ph(c.phases.as_ref().map(|p| p.detect)),
                ph(c.phases.as_ref().map(|p| p.notify)),
                ph(c.phases.as_ref().map(|p| p.program)),
                ph(c.phases.as_ref().map(|p| p.fib)),
                if i == 0 {
                    records.to_string()
                } else {
                    String::new()
                },
            ]);
        }
        if let Some(dir) = &out_dir {
            write_artifacts(dir, mode_label(mode), &art);
        } else {
            println!("-- {} counters --", mode_label(mode));
            for (k, v) in parse_counters(&art.metrics_json) {
                println!("{k:<28} {v}");
            }
        }
    }
    println!("{}", table.render());
    if let Some(dir) = &out_dir {
        println!("artifacts in {dir}/ — open the .trace.json in Perfetto");
    }
}

fn write_artifacts(dir: &str, mode: &str, art: &TraceArtifacts) {
    for (suffix, body) in [
        ("trace.jsonl", &art.jsonl),
        ("trace.json", &art.chrome),
        ("metrics.json", &art.metrics_json),
    ] {
        let path = format!("{dir}/{mode}.{suffix}");
        std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

/// Pull the flat `"counters":{"name":value,…}` section out of a
/// registry dump. The format is ours and stable (sorted, integers
/// only), so a hand parser beats a serde dependency.
fn parse_counters(metrics_json: &str) -> Vec<(String, u64)> {
    let Some(start) = metrics_json.find("\"counters\":{") else {
        return Vec::new();
    };
    let body = &metrics_json[start + "\"counters\":{".len()..];
    let Some(end) = body.find('}') else {
        return Vec::new();
    };
    body[..end]
        .split(',')
        .filter_map(|pair| {
            let (k, v) = pair.split_once(':')?;
            Some((k.trim_matches('"').to_string(), v.parse().ok()?))
        })
        .collect()
}

fn diff_metrics(a_path: &str, b_path: &str) {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{p}: {e}"));
    let a: std::collections::BTreeMap<String, u64> =
        parse_counters(&read(a_path)).into_iter().collect();
    let b: std::collections::BTreeMap<String, u64> =
        parse_counters(&read(b_path)).into_iter().collect();
    let mut any = false;
    for k in a
        .keys()
        .chain(b.keys())
        .collect::<std::collections::BTreeSet<_>>()
    {
        let (va, vb) = (
            a.get(k).copied().unwrap_or(0),
            b.get(k).copied().unwrap_or(0),
        );
        if va != vb {
            any = true;
            let delta = vb as i128 - va as i128;
            println!("{k:<28} {va:>10} -> {vb:<10} ({delta:+})");
        }
    }
    if !any {
        println!("counters identical");
    }
}
