//! End-to-end MRT replay through the scenario engine: the committed
//! fixtures seed the provider tables, the recorded update trace plays
//! through the kernel's event queue with warped inter-arrival timing, and
//! every burst is measured in its own convergence window.

use sc_lab::Mode;
use sc_net::SimDuration;
use sc_openflow::SwitchConfig;
use sc_router::Calibration;
use sc_scenarios::{
    build_scenario, run_scenario, EventScript, FeedSource, MrtReplayFeed, ScenarioConfig,
    SuiteReport, TopologySpec,
};

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The fixture feed, warped 4x faster. At 0.25x the recorded
/// inter-burst quiet gaps (>= 200 ms) stay above the 40 ms epoch
/// threshold while intra-burst gaps (microseconds) stay far below it,
/// so epoch detection recovers exactly the 24 recorded bursts.
fn replay_feed() -> FeedSource {
    let mut feed = MrtReplayFeed::new(fixture("ris_rib.mrt"), fixture("ris_updates.mrt"));
    feed.time_scale = "0.25".parse().unwrap();
    feed.epoch_quiet = SimDuration::from_millis(40);
    FeedSource::MrtReplay(feed)
}

fn replay_cfg() -> ScenarioConfig {
    ScenarioConfig {
        flows: 8,
        rate_pps: Some(2_000),
        feed: replay_feed(),
        ..ScenarioConfig::default()
    }
}

const TOPO: TopologySpec = TopologySpec::Chain {
    providers: 2,
    hops: 1,
};

#[test]
fn mrt_feed_seeds_tables_with_rewritten_next_hops() {
    // Table-only feed (no timed trace).
    let feed = FeedSource::MrtReplay(MrtReplayFeed::new(fixture("ris_rib.mrt"), Vec::new()));
    let cfg = ScenarioConfig {
        flows: 4,
        feed,
        ..ScenarioConfig::default()
    };
    let scn = build_scenario(&TOPO, Mode::Stock, &cfg);
    // The snapshot's 256 prefixes override the configured table size.
    assert_eq!(scn.universe.len(), 256);
    assert_eq!(scn.cfg.prefixes, 256);
    assert_eq!(scn.replay_peers.len(), 2);
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

#[test]
fn replay_trial_measures_every_recorded_burst() {
    let cfg = replay_cfg();
    let script = EventScript::new("replay-only", Vec::new());
    let legacy = run_scenario(&TOPO, &script, Mode::Stock, &cfg);
    assert_eq!(legacy.prefixes, 256, "snapshot-sized table in the report");
    assert_eq!(
        legacy.cycles.len(),
        24,
        "one measurement window per recorded burst"
    );
    assert_eq!(legacy.unrecovered, 0, "every flow recovered by the end");
    assert!(legacy.per_flow.iter().all(|g| !g.is_zero()));

    // The supercharged path digests the same replay (provider updates
    // flow through the controller and on to R1).
    let sup = run_scenario(&TOPO, &script, Mode::Supercharged, &cfg);
    assert_eq!(sup.cycles.len(), 24);
    assert_eq!(sup.unrecovered, 0);
}

/// Replay is deterministic: identical trials produce byte-identical
/// stable report rows. Replay events enter through the same kernel
/// event queue as everything else, whose pops the order check holds to
/// `(time, origin key)` order in debug builds, so no queue could
/// change them.
#[test]
fn replay_is_deterministic_and_scheduler_invariant() {
    let script = EventScript::new("replay-only", Vec::new());
    let row = |cfg: &ScenarioConfig| {
        let outcome = run_scenario(&TOPO, &script, Mode::Stock, cfg);
        SuiteReport::row_json_stable(&outcome).to_string()
    };
    let base = replay_cfg();
    assert_eq!(row(&base), row(&base), "two identical runs, identical rows");
}

/// A failure script composes with a replay feed: scripted epochs and
/// replay epochs merge into one window schedule.
#[test]
fn script_epochs_merge_with_replay_epochs() {
    let cfg = replay_cfg();
    // Cut the primary's cable mid-trace (between bursts, so the count
    // grows by exactly one window).
    let script = EventScript::new(
        "mid-replay-cut",
        vec![sc_scenarios::ScenarioEvent::LinkDown {
            link: sc_scenarios::LinkRef::ProviderSwitch(sc_scenarios::ProviderSel::Primary),
            at: SimDuration::from_millis(205),
        }],
    );
    let outcome = run_scenario(&TOPO, &script, Mode::Stock, &cfg);
    assert_eq!(outcome.cycles.len(), 25, "24 bursts + 1 scripted cut");
    assert_eq!(outcome.unrecovered, 0, "backup provider carries the rest");
}

/// Where supercharging stops paying: the same recorded trace, then a
/// primary cut after it drains, on routers scaled from the paper's
/// Nexus 7k (FIB entry cost and peer-down processing together). The
/// legacy cut grows with the router's cost while the supercharged cut
/// stays BFD-bound, so the speedup rises from below 1× at 0 % (an
/// instant FIB). There supercharging costs at most its reaction delay
/// and one flow install.
#[test]
fn speedup_crosses_one_as_the_router_slows() {
    let script = EventScript::new(
        "post-replay-cut",
        vec![sc_scenarios::ScenarioEvent::LinkDown {
            link: sc_scenarios::LinkRef::ProviderSwitch(sc_scenarios::ProviderSel::Primary),
            at: SimDuration::from_millis(2_500),
        }],
    );
    let cut_max = |mode: Mode, cfg: &ScenarioConfig| {
        let outcome = run_scenario(&TOPO, &script, mode, cfg);
        assert_eq!(outcome.unrecovered, 0);
        outcome.cycles.last().unwrap().stats().max
    };
    let nexus = Calibration::nexus7k();
    let mut prev: Option<(SimDuration, f64)> = None;
    for pct in [0, 25, 50, 100, 200] {
        let cfg = ScenarioConfig {
            cal: Calibration {
                fib_entry_update: nexus.fib_entry_update * pct / 100,
                peer_down_processing: nexus.peer_down_processing * pct / 100,
                ..nexus
            },
            ..replay_cfg()
        };
        let legacy = cut_max(Mode::Stock, &cfg);
        let sup = cut_max(Mode::Supercharged, &cfg);
        let speedup = legacy.as_secs_f64() / sup.as_secs_f64();
        assert!(
            sup <= SimDuration::from_millis(100),
            "{pct}%: supercharged {sup}"
        );
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
