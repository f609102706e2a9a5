//! RIS-shaped tables through the scenario engine: the committed
//! `TABLE_DUMP_V2` fixture seeds the provider tables
//! (`FeedSource::MrtSnapshot`), and a primary cut runs on them.

use sc_lab::Mode;
use sc_net::SimDuration;
use sc_openflow::SwitchConfig;
use sc_router::Calibration;
use sc_scenarios::{
    build_scenario, run_scenario, EventScript, FeedSource, ScenarioConfig, TopologySpec,
};

fn snapshot_feed() -> FeedSource {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/ris_rib.mrt"
    );
    let rib = std::fs::read(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    FeedSource::MrtSnapshot(std::sync::Arc::new(rib))
}

const TOPO: TopologySpec = TopologySpec::Chain {
    providers: 2,
    hops: 1,
};

#[test]
fn mrt_feed_seeds_tables_with_rewritten_next_hops() {
    let cfg = ScenarioConfig {
        flows: 4,
        feed: snapshot_feed(),
        ..ScenarioConfig::default()
    };
    let scn = build_scenario(&TOPO, Mode::Stock, &cfg);
    // The snapshot's 256 prefixes override the configured table size.
    assert_eq!(scn.universe.len(), 256);
    assert_eq!(scn.cfg.prefixes, 256);
    for i in 0..scn.providers.len() {
        let feed = scn.provider_feed(i);
        let nlri: usize = feed.iter().map(|u| u.nlri.len()).sum();
        assert_eq!(nlri, 256, "provider {i} announces the full snapshot");
        assert!(
            feed.iter()
                .all(|u| u.attrs.as_ref().unwrap().next_hop == scn.provider_ips[i]),
            "provider {i} next-hops rewritten to its own address"
        );
        // Recorded attribute runs still share one Arc per run.
        let distinct: std::collections::BTreeSet<*const sc_bgp::attrs::RouteAttrs> = feed
            .iter()
            .map(|u| std::sync::Arc::as_ptr(u.attrs.as_ref().unwrap()))
            .collect();
        assert!(distinct.len() * 4 < nlri, "attribute sharing survived");
    }
}

/// Where supercharging stops paying: the snapshot's tables, then a
/// primary cut, on routers scaled from the paper's Nexus 7k (FIB entry
/// cost and peer-down processing together). The legacy cut grows with
/// the router's cost while the supercharged cut stays BFD-bound, so the
/// speedup rises from below 1× at 0 % (an instant FIB). There
/// supercharging costs at most its reaction delay and one flow install.
///
/// The cut is the paper's, at offset zero. Where it lands in the
/// primary's BFD cycle sets the supercharged detection time, anywhere
/// from 2 to 3 intervals, so the supercharged bound is the model's
/// ceiling at any instant: 3 intervals of detection, the controller's
/// reaction, one flow install, and a probe gap for the last probe
/// across the cut.
#[test]
fn speedup_crosses_one_as_the_router_slows() {
    let script = EventScript::primary_cut();
    let cut_max = |mode: Mode, cfg: &ScenarioConfig| {
        let outcome = run_scenario(&TOPO, &script, mode, cfg);
        assert_eq!(outcome.unrecovered, 0);
        outcome.cycles.last().unwrap().stats().max
    };
    let nexus = Calibration::nexus7k();
    let mut prev: Option<(SimDuration, f64)> = None;
    for pct in [0, 25, 50, 100, 200] {
        let cfg = ScenarioConfig {
            flows: 8,
            rate_pps: Some(2_000),
            feed: snapshot_feed(),
            cal: Calibration {
                fib_entry_update: nexus.fib_entry_update * pct / 100,
                peer_down_processing: nexus.peer_down_processing * pct / 100,
                ..nexus
            },
            ..ScenarioConfig::default()
        };
        let legacy = cut_max(Mode::Stock, &cfg);
        let sup = cut_max(Mode::Supercharged, &cfg);
        let speedup = legacy.as_secs_f64() / sup.as_secs_f64();
        let ceiling = cfg.bfd_interval * 3
            + cfg.reaction_delay
            + SwitchConfig::paper_defaults("sw").install_base
            + SimDuration::from_secs(1) / cfg.rate_pps.expect("a probe rate");
        assert!(sup <= ceiling, "{pct}%: supercharged {sup} over {ceiling}");
        assert_eq!(speedup > 1.0, pct > 0, "{pct}%: speedup {speedup:.2}");
        if let Some((prev_legacy, prev_speedup)) = prev {
            assert!(legacy > prev_legacy && speedup > prev_speedup, "{pct}%");
        } else {
            let loss = sup - legacy;
            let bound = cfg.reaction_delay + SwitchConfig::paper_defaults("sw").install_base;
            assert!(
                !loss.is_zero() && loss <= bound,
                "instant router: loss {loss}"
            );
        }
        prev = Some((legacy, speedup));
    }
}
