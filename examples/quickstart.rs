//! Quickstart: supercharge a router, kill its preferred provider, watch
//! it converge ~100 ms instead of ~0.7 s.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use supercharged_router::lab::Mode;
use supercharged_router::scenarios::{run_scenario, EventScript, ScenarioConfig, TopologySpec};

fn main() {
    // The paper's scenario at 1k prefixes: R1 prefers provider R2 ($)
    // over R3 ($$); both advertise the same 1 000 prefixes; BFD watches
    // R2; at t=fail the R2 cable is pulled.
    let cfg = ScenarioConfig {
        prefixes: 1_000,
        flows: 50,
        seed: 1,
        ..ScenarioConfig::default()
    };
    let trial = |mode| {
        run_scenario(
            &TopologySpec::Fig4Lab,
            &EventScript::primary_cut(),
            mode,
            &cfg,
        )
    };
    println!("building the supercharged lab (1k prefixes, 50 monitored flows)...");
    let supercharged = trial(Mode::Supercharged);

    println!("building the stock lab for comparison...");
    let stock = trial(Mode::Stock);

    let s = supercharged.stats();
    println!("\nsupercharged router:");
    println!(
        "  detection      : {}",
        supercharged.detected_at.unwrap() - supercharged.fail_at
    );
    println!(
        "  flow rewrites  : {} (constant, regardless of 1k prefixes)",
        supercharged.flow_rewrites.unwrap()
    );
    println!("  convergence    : median {}   worst {}", s.median, s.max);

    let t = stock.stats();
    println!("\nstock router (same failure):");
    println!("  convergence    : median {}   worst {}", t.median, t.max);

    println!(
        "\nspeedup: {:.0}x — and it grows with the table size (run the fig5 bench \
         for the full 1k..500k sweep, where it reaches ~900x).",
        t.max.as_secs_f64() / s.max.as_secs_f64()
    );
}
