//! The paper's motivating scenario (Figs. 1 and 2), inspected live: a
//! dual-homed edge router whose *flat* FIB holds one L2 next-hop per
//! prefix, versus its supercharged twin whose FIB points every prefix at
//! one virtual next-hop resolved — via ARP — to a virtual MAC that the
//! SDN switch rewrites.
//!
//! The example prints the actual FIB rows, the ARP binding, and the
//! switch flow table before and after the failure, mirroring the
//! paper's figures.
//!
//! ```text
//! cargo run --release --example multihoming
//! ```

use supercharged_router::lab::topology::{IP_R2, IP_R3};
use supercharged_router::lab::Mode;
use supercharged_router::net::SimDuration;
use supercharged_router::openflow::OfSwitch;
use supercharged_router::router::LegacyRouter;
use supercharged_router::scenarios::{build_scenario, BuiltScenario, ScenarioConfig, TopologySpec};
use supercharged_router::supercharger::Controller;

fn dump_fib(lab: &BuiltScenario, title: &str, rows: usize) {
    let r1 = lab.world.node::<LegacyRouter>(lab.r1);
    println!("{title} (first {rows} of {} entries)", r1.fib().len());
    println!("  {:<20} {:>16}", "prefix", "IP next-hop");
    for (prefix, entry) in r1.fib().iter().take(rows) {
        let label = if entry.next_hop == IP_R2 {
            " (R2, provider $)"
        } else if entry.next_hop == IP_R3 {
            " (R3, provider $$)"
        } else if lab.universe.binary_search(&prefix).is_err() {
            " (connected)"
        } else {
            " (virtual next-hop!)"
        };
        println!(
            "  {:<20} {:>16}{label}",
            prefix.to_string(),
            entry.next_hop.to_string()
        );
    }
    println!();
}

fn dump_flows(lab: &BuiltScenario, title: &str) {
    let sw = lab.world.node::<OfSwitch>(lab.switch);
    println!("{title} ({} entries)", sw.table().len());
    for e in sw.table().entries() {
        println!("  {e}");
    }
    println!();
}

fn run(mode: Mode) -> BuiltScenario {
    let cfg = ScenarioConfig {
        prefixes: 8, // small enough to print whole tables
        flows: 4,
        seed: 3,
        ..ScenarioConfig::default()
    };
    let mut lab = build_scenario(&TopologySpec::Fig4Lab, mode, &cfg);
    lab.run_until_converged();
    lab
}

fn main() {
    // ---- Fig. 1: the classical router ----
    println!("================ Fig. 1 — classical (flat FIB) ================\n");
    let stock = run(Mode::Stock);
    dump_fib(&stock, "R1 FIB — every entry holds its own next-hop", 9);
    println!(
        "Upon failure of R2, every one of those entries must be rewritten,\n\
         one by one (~281us each on the modeled Nexus 7k: ~2.4 minutes at 512k).\n"
    );

    // ---- Fig. 2: the supercharged router ----
    println!("============== Fig. 2 — supercharged (2-stage FIB) =============\n");
    let mut lab = run(Mode::Supercharged);
    dump_fib(
        &lab,
        "R1 FIB — every prefix points at ONE virtual next-hop",
        9,
    );

    let ctrl = lab.world.node::<Controller>(lab.controllers[0]);
    for group in ctrl.engine().groups().iter() {
        println!(
            "backup-group {:?}: ({}, {}) -> VNH {}  VMAC {}  [{} prefixes]",
            group.id, group.key[0], group.key[1], group.vnh, group.vmac, group.prefixes
        );
    }
    println!();
    dump_flows(&lab, "switch flow table — the second FIB stage");

    // ---- the failure ----
    println!("=============== pulling R2's cable ================\n");
    let link = lab.provider_switch_links[lab.primary];
    let fail_at = lab.world.now() + SimDuration::from_millis(100);
    lab.world
        .schedule(fail_at, move |w| w.set_link_up(link, false));
    lab.world.run_until(fail_at + SimDuration::from_millis(500));

    let ctrl = lab.world.node::<Controller>(lab.controllers[0]);
    for (t, ev) in ctrl.events.iter().filter(|(t, _)| *t >= fail_at) {
        println!("  [{}] {ev:?}", *t - fail_at);
    }
    println!();
    dump_flows(
        &lab,
        "switch flow table after failover — one rule rewritten",
    );
    println!(
        "The FIB above is *unchanged* — all {} prefixes still point at the VNH.\n\
         Only the switch rule moved. That is the paper's whole trick.",
        lab.cfg.prefixes
    );
}
