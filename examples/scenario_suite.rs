//! Run the default scenario matrix — four topologies (the paper's
//! Fig. 4 lab, a provider chain, an IXP hub, a ring) × two failure
//! scripts (cable cut, cable flap) × both modes — and emit CSV + JSON
//! reports next to the human-readable summary.
//!
//! ```text
//! cargo run --release --example scenario_suite -- [prefixes] [out-prefix]
//! ```
//!
//! Writes `<out-prefix>.csv` and `<out-prefix>.json`
//! (default `scenario_report`).

use supercharged_router::scenarios::{run_suite, ScenarioConfig, SuiteConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let prefixes: u32 = args.first().and_then(|a| a.parse().ok()).unwrap_or(500);
    let out_prefix = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "scenario_report".to_string());

    let mut suite = SuiteConfig::default_matrix();
    suite.base = ScenarioConfig {
        prefixes,
        flows: 30,
        ..ScenarioConfig::default()
    };
    let trials = suite.topologies.len() * suite.scripts.len() * suite.modes.len();
    println!(
        "scenario suite: {} topologies x {} scripts x {} modes = {trials} trials, {prefixes} prefixes each",
        suite.topologies.len(),
        suite.scripts.len(),
        suite.modes.len()
    );

    let t0 = std::time::Instant::now();
    let report = run_suite(&suite);
    println!("ran in {:.1}s\n", t0.elapsed().as_secs_f64());

    println!(
        "{:<12} {:<14} {:<13} {:>10} {:>10} {:>10} {:>6}",
        "topology", "script", "mode", "median", "p95", "max", "lost"
    );
    for row in &report.rows {
        let s = row.stats();
        println!(
            "{:<12} {:<14} {:<13} {:>10} {:>10} {:>10} {:>6}",
            row.topology,
            row.script,
            supercharged_router::scenarios::mode_label(row.mode),
            s.median.to_string(),
            s.p95.to_string(),
            s.max.to_string(),
            row.unrecovered
        );
    }

    println!();
    for (topo, script, x) in report.speedups() {
        println!("{topo:<12} {script:<14} supercharging is {x:.0}x faster (median)");
    }

    let csv_path = format!("{out_prefix}.csv");
    let json_path = format!("{out_prefix}.json");
    // Identical args ⇒ byte-identical files.
    std::fs::write(&csv_path, report.to_csv_stable()).expect("write CSV report");
    std::fs::write(&json_path, report.to_json_stable()).expect("write JSON report");
    println!("\nreports: {csv_path}, {json_path}");
}
