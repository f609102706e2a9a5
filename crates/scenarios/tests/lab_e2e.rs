//! Full-stack tests on the paper's Fig. 4 lab: both halves of Fig. 5 at
//! reduced scale, the controller-replication story, and the headline
//! claim — the supercharged router converges in ~150 ms regardless of
//! table size while the stock router's convergence grows linearly.
//!
//! The sensitivity sweeps vary one calibration constant at a time and
//! check the paper's decomposition (§4, Fig. 5): supercharged
//! convergence is BFD detection + the controller's reaction + one flow
//! install; stock convergence is detection + the whole FIB walk.

use sc_lab::Mode;
use sc_net::SimDuration;
use sc_openflow::SwitchConfig;
use sc_router::Calibration;
use sc_scenarios::{
    build_scenario, run_scenario, EventScript, ScenarioConfig, ScenarioOutcome, TopologySpec,
};
use sc_sim::{PortId, TimerToken};
use sc_traffic::TrafficSource;

fn base(prefixes: u32) -> ScenarioConfig {
    ScenarioConfig {
        prefixes,
        flows: 30,
        seed: 7,
        ..ScenarioConfig::default()
    }
}

/// The paper's experiment: pull R2's cable, measure per-flow gaps.
fn trial(mode: Mode, cfg: &ScenarioConfig) -> ScenarioOutcome {
    run_scenario(
        &TopologySpec::Fig4Lab,
        &EventScript::primary_cut(),
        mode,
        cfg,
    )
}

/// The cell every sensitivity sweep varies one constant of: 300
/// prefixes, 10 flows, seed 42.
fn sweep_cell() -> ScenarioConfig {
    ScenarioConfig {
        flows: 10,
        seed: 42,
        ..base(300)
    }
}

fn detection(r: &ScenarioOutcome) -> SimDuration {
    r.detected_at.expect("the cut was detected") - r.fail_at
}

/// What supercharged convergence leaves after its three modeled terms
/// (detection, reaction delay, the switch's install base), in ns: wire
/// time and probe spacing, under 250 µs in the Fig. 4 lab.
fn fast_path_residual_ns(r: &ScenarioOutcome, cfg: &ScenarioConfig) -> i64 {
    let install = SwitchConfig::paper_defaults("sw").install_base;
    let terms = detection(r) + cfg.reaction_delay + install;
    r.stats().max.as_nanos() as i64 - terms.as_nanos() as i64
}

const RESIDUAL_NS: std::ops::RangeInclusive<i64> = 0..=250_000;

#[test]
fn supercharged_converges_within_150ms_regardless_of_position() {
    let r = trial(Mode::Supercharged, &base(1_000));
    assert_eq!(r.unrecovered, 0, "all flows recovered");
    assert_eq!(r.flow_rewrites, Some(1), "one backup-group, one rewrite");
    let stats = r.stats();
    // The paper: systematically within ~150ms. Allow the BFD-jitter
    // envelope: detection ≤90ms + reaction 3ms + install ~17ms + wire.
    assert!(
        stats.max <= SimDuration::from_millis(150),
        "worst flow took {}",
        stats.max
    );
    assert!(
        stats.min >= SimDuration::from_millis(30),
        "faster than detection is impossible, got {}",
        stats.min
    );
    // Prefix-independence: the spread across flows is the single rule
    // flip — every flow recovers at the same instant (within one probe
    // gap + measurement quantum).
    let spread = stats.max - stats.min;
    assert!(
        spread <= SimDuration::from_millis(35),
        "supercharged recovery must be flat across flows, spread {spread}"
    );
    let detect = r.detected_at.expect("controller saw the failure") - r.fail_at;
    assert!(
        detect <= SimDuration::from_millis(91),
        "BFD budget, got {detect}"
    );
}

#[test]
fn stock_converges_linearly_with_table_size() {
    let r = trial(Mode::Stock, &base(1_000));
    assert_eq!(r.unrecovered, 0);
    let stats = r.stats();
    let expected_max = Calibration::nexus7k().expected_full_walk(1_000);
    // Worst flow ≈ detection + full walk.
    let got = stats.max.as_secs_f64();
    let model = expected_max.as_secs_f64() + 0.09;
    assert!(
        (got / model - 1.0).abs() < 0.25,
        "stock worst-case {got:.3}s vs model {model:.3}s"
    );
    // First flow recovers no earlier than ~375ms (paper's best case).
    assert!(
        stats.min >= SimDuration::from_millis(300),
        "best case {}",
        stats.min
    );
    // The distribution is spread (flows recover as the walk reaches
    // their prefix): median must sit well between min and max — not
    // collapsed like the supercharged case.
    assert!(stats.median > stats.min + (stats.max - stats.min) / 10);
    assert!(stats.median < stats.max - (stats.max - stats.min) / 10);
}

#[test]
fn supercharging_wins_by_a_growing_factor() {
    // At 2k prefixes the stock walk is ≈0.9s while the supercharged
    // recovery stays ~0.11s: the gap grows with the table, which is the
    // paper's core claim (×900 at 500k — checked at full scale by the
    // fig5 bench, not in unit tests).
    let stock = trial(Mode::Stock, &base(2_000));
    let sup = trial(Mode::Supercharged, &base(2_000));
    let ratio = stock.stats().max.as_secs_f64() / sup.stats().max.as_secs_f64();
    assert!(ratio > 4.0, "speedup only {ratio:.1}x");
    // And supercharged does not depend on the table size.
    let sup_small = trial(Mode::Supercharged, &base(200));
    let d = (sup.stats().max.as_secs_f64() - sup_small.stats().max.as_secs_f64()).abs();
    assert!(
        d < 0.05,
        "supercharged convergence must be prefix-independent (Δ {d:.3}s)"
    );
}

#[test]
fn replicated_controllers_survive_primary_loss() {
    let cfg = ScenarioConfig {
        controllers: 2,
        ..base(500)
    };
    // Build manually so we can kill the primary before the failure.
    let mut lab = build_scenario(&TopologySpec::Fig4Lab, Mode::Supercharged, &cfg);
    lab.run_until_converged();

    // Kill the primary controller, then R2, and verify the backup does
    // the Listing-2 rewrite alone.
    let primary = lab.controllers[0];
    let t0 = lab.world.now();
    let kill_at = t0 + SimDuration::from_millis(500);
    lab.world.schedule(kill_at, move |w| w.crash_node(primary));
    let link = lab.provider_switch_links[lab.primary];
    let fail_at = kill_at + SimDuration::from_secs(2);
    lab.world
        .schedule(fail_at, move |w| w.set_link_up(link, false));
    lab.world.run_until(fail_at + SimDuration::from_secs(2));

    let backup = lab
        .world
        .node::<supercharger::Controller>(lab.controllers[1]);
    let failover = backup
        .events
        .iter()
        .find_map(|(t, e)| match e {
            supercharger::controller::ControllerEvent::FailoverIssued { rewrites, .. }
                if *t >= fail_at =>
            {
                Some((*t, *rewrites))
            }
            _ => None,
        })
        .expect("backup controller performed the failover");
    assert!(
        failover.0 - fail_at <= SimDuration::from_millis(120),
        "backup failover took {}",
        failover.0 - fail_at
    );
    assert_eq!(failover.1, 1);
    // The switch now steers the VMAC to R3: R3's LAN link is its
    // PortId(0), and its far end is the switch port to steer to.
    let r3_port = lab
        .world
        .peer_of(lab.providers[1], PortId(0))
        .expect("R3 is wired to the switch")
        .port;
    let sw = lab.world.node::<sc_openflow::OfSwitch>(lab.switch);
    let vmac_rules: Vec<_> = sw
        .table()
        .entries()
        .iter()
        .filter(|e| {
            e.matcher
                .eth_dst
                .map(|m| m.virtual_index().is_some())
                .unwrap_or(false)
        })
        .collect();
    assert!(!vmac_rules.is_empty());
    for rule in vmac_rules {
        assert!(
            rule.actions
                .contains(&sc_openflow::Action::Output(r3_port.0 as u16)),
            "rule still points at the dead provider: {rule}"
        );
    }
}

/// The FIB walker takes one kernel event per batch of writes due before
/// the kernel's horizon, not one per write, and that changes nothing it
/// writes. The converged instant, the ops applied and R1's FIB digest
/// are the values one event per write produced; `events_processed`
/// fails if the walker goes back to one event per write.
#[test]
fn walker_batches_save_events_and_change_nothing_else() {
    let cfg = ScenarioConfig {
        prefixes: 2_000,
        flows: 10,
        seed: 42,
        ..ScenarioConfig::default()
    };
    let got = [Mode::Stock, Mode::Supercharged].map(|mode| {
        let mut lab = build_scenario(&TopologySpec::Fig4Lab, mode, &cfg);
        let converged = lab.run_until_converged();
        let r1 = lab.world.node::<sc_router::LegacyRouter>(lab.r1);
        // FNV-1a over every (prefix, length, next hop), in FIB order.
        let fib_digest = r1.fib().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, (p, e)| {
            let bytes = p.raw_bits().to_be_bytes().into_iter().chain([p.len()]);
            bytes
                .chain(e.next_hop.octets())
                .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        });
        (
            mode,
            lab.world.stats().events_processed,
            converged.as_nanos(),
            r1.walker().ops_applied,
            fib_digest,
        )
    });
    // (mode, events_processed, converged at (ns), ops applied, FIB digest)
    assert_eq!(
        got,
        [
            // One event per write: 4,405 events.
            (
                Mode::Stock,
                798,
                2_000_000_000,
                3_619,
                10_981_570_816_538_888_873
            ),
            // One event per write: 5,490 events.
            (
                Mode::Supercharged,
                1_523,
                2_000_000_000,
                4_000,
                17_365_040_869_491_217_169
            ),
        ]
    );
}

#[test]
fn trial_metadata_is_sound() {
    let r = trial(Mode::Supercharged, &base(300));
    assert_eq!(r.prefixes, 300);
    assert_eq!(r.per_flow.len(), 30);
    assert_eq!(r.rate_pps, 14_000, "the paper's rate by default");
    assert!(r.detected_at.unwrap() > r.fail_at);
    assert!(r.setup_time < r.fail_at);
}

/// A configured probe rate is the rate the source sends — 2,000 packets
/// per flow in a one-second window — and the rate the trial reports.
#[test]
fn configured_rate_is_the_rate_the_source_sends() {
    let cfg = ScenarioConfig {
        rate_pps: Some(2_000),
        ..base(300)
    };
    let mut lab = build_scenario(&TopologySpec::Fig4Lab, Mode::Stock, &cfg);
    let start = lab.run_until_converged() + SimDuration::from_millis(100);
    let stop = start + SimDuration::from_secs(1);
    lab.world
        .node_mut::<TrafficSource>(lab.source)
        .set_window(start, stop);
    lab.world.wake_node(start, lab.source, TimerToken(1));
    lab.world.run_until(stop + SimDuration::from_millis(100));
    let sent = lab.world.node::<TrafficSource>(lab.source).packets_sent;
    assert_eq!(sent, 2_000 * cfg.flows as u64, "2,000 pps per flow for 1 s");

    let r = trial(Mode::Stock, &cfg);
    assert_eq!(r.rate_pps, 2_000);
    assert_eq!(r.unrecovered, 0);
}

#[test]
fn carrier_detection_beats_bfd() {
    // Ablation beyond the paper: with PORT_STATUS failover the detection
    // term (~90ms of BFD) collapses to the wire+control-channel latency,
    // pushing total convergence well under 50ms.
    let cfg = ScenarioConfig {
        portstatus_failover: true,
        ..base(500)
    };
    let r = trial(Mode::Supercharged, &cfg);
    assert_eq!(r.unrecovered, 0);
    let with_carrier = r.stats().max;
    assert!(
        with_carrier <= SimDuration::from_millis(50),
        "carrier-based failover took {with_carrier}"
    );
    let bfd_only = trial(Mode::Supercharged, &base(500));
    assert!(
        with_carrier < bfd_only.stats().max,
        "carrier detection must beat BFD ({} vs {})",
        with_carrier,
        bfd_only.stats().max
    );
}

#[test]
fn lossy_control_plane_is_repaired_by_the_channel() {
    // Failure injection: 10% frame loss on the controller↔switch link.
    // OpenFlow rides the reliable channel, so the FLOW_MODs still land;
    // convergence may pay retransmission rounds (RTO 200ms) but every
    // flow must recover.
    let cfg = ScenarioConfig {
        control_loss: 0.10,
        ..base(500)
    };
    let r = trial(Mode::Supercharged, &cfg);
    assert_eq!(r.unrecovered, 0, "all flows recovered despite control loss");
    let max = r.stats().max;
    assert!(
        max <= SimDuration::from_millis(800),
        "convergence with lossy control plane took {max}"
    );
}

/// The BFD interval moves only the detection term: detection stays
/// within three intervals and rises with the interval, and the residual
/// after detection + reaction + install stays in the wire-time band.
#[test]
fn bfd_interval_moves_only_detection() {
    let mut prev = SimDuration::ZERO;
    for ms in [10, 30, 50, 100] {
        let cfg = ScenarioConfig {
            bfd_interval: SimDuration::from_millis(ms),
            ..sweep_cell()
        };
        let r = trial(Mode::Supercharged, &cfg);
        assert_eq!(r.unrecovered, 0, "{ms} ms");
        let detect = detection(&r);
        assert!(
            detect > prev && detect <= cfg.bfd_interval * 3,
            "{ms} ms interval: detection {detect} (previous {prev})"
        );
        prev = detect;
        let residual = fast_path_residual_ns(&r, &cfg);
        assert!(
            RESIDUAL_NS.contains(&residual),
            "{ms} ms interval: residual {residual} ns"
        );
    }
}

/// The controller's reaction delay adds one for one: the residual stays
/// in the wire-time band, and the 150 ms budget holds up to a 30 ms
/// reaction and breaks at 60 ms.
#[test]
fn reaction_delay_adds_one_for_one() {
    for ms in [1, 3, 10, 30, 60] {
        let cfg = ScenarioConfig {
            reaction_delay: SimDuration::from_millis(ms),
            ..sweep_cell()
        };
        let r = trial(Mode::Supercharged, &cfg);
        assert_eq!(r.unrecovered, 0, "{ms} ms");
        let residual = fast_path_residual_ns(&r, &cfg);
        assert!(
            RESIDUAL_NS.contains(&residual),
            "{ms} ms reaction: residual {residual} ns"
        );
        let max = r.stats().max;
        assert_eq!(
            max <= SimDuration::from_millis(150),
            ms <= 30,
            "{ms} ms reaction: max {max}"
        );
    }
}

/// The stock router's worst flow waits for detection plus the whole
/// walk (`Calibration::expected_full_walk`), to within 1 ms at every
/// per-entry cost, and supercharging never loses. At ≤ 30 µs/entry R1's
/// own repair walk beats the fast path, so only the residual's upper
/// bound holds for supercharged.
#[test]
fn stock_model_is_detection_plus_full_walk() {
    for us in [281, 100, 30, 10, 1] {
        let cal = Calibration {
            fib_entry_update: SimDuration::from_micros(us),
            ..Calibration::nexus7k()
        };
        let cfg = ScenarioConfig {
            cal,
            ..sweep_cell()
        };
        let stock = trial(Mode::Stock, &cfg);
        let sup = trial(Mode::Supercharged, &cfg);
        assert_eq!((stock.unrecovered, sup.unrecovered), (0, 0), "{us} µs");
        let model = detection(&stock) + cal.expected_full_walk(300);
        let err_ns = stock.stats().max.as_nanos() as i64 - model.as_nanos() as i64;
        assert!(
            err_ns.abs() <= 1_000_000,
            "{us} µs/entry: stock max {} vs model {model}",
            stock.stats().max
        );
        assert!(sup.stats().max <= stock.stats().max, "{us} µs/entry");
        let residual = fast_path_residual_ns(&sup, &cfg);
        assert!(
            residual <= *RESIDUAL_NS.end(),
            "{us} µs/entry: residual {residual} ns"
        );
    }
}
