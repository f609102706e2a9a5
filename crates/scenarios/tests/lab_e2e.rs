//! Full-stack tests on the paper's Fig. 4 lab, gated against the
//! paper's closed-form convergence model — the decomposition Sermpezis
//! & Dimitropoulos use, computed from configuration and calibration
//! constants alone ([`Model`]):
//!
//! * stock: BFD detection + the router's peer-down processing + its FIB
//!   walk up to the flow's prefix, so convergence grows linearly with
//!   the prefix's position and so with the table size;
//! * supercharged: BFD detection + the controller's reaction + one
//!   group flow-mod, whatever the table size.
//!
//! Fig. 5's cells check every flow against the model on every push (1k
//! to 50k prefixes, and the cut swept across one BFD interval); an
//! ignored test runs the paper's whole x-axis. The sensitivity sweeps
//! vary one constant at a time and check that it moves only its own
//! term. Figs. 1 and 2 read R1's FIB, its ARP binding and the switch's
//! rules across the cut. Then the controller-replication story, §4's
//! per-UPDATE work and the lab's plumbing.

use sc_lab::harness::{arm_traffic, plan_cycle_measurement, CycleWindow};
use sc_lab::topology::{IP_R2, IP_R3, MAC_R2, MAC_R3};
use sc_lab::Mode;
use sc_net::{Ipv4Addr, MacAddr, SimDuration};
use sc_openflow::{Action, FlowEntry, OfSwitch, SwitchConfig};
use sc_routegen::{generate_feed_for, prefix_universe, FeedConfig};
use sc_router::{Calibration, LegacyRouter, PAPER_STOCK_MAX_S};
use sc_scenarios::{
    build_scenario, expected_budget, run_scenario, run_trials, BuiltScenario, EventScript, LinkRef,
    ProviderSel, ScenarioConfig, ScenarioEvent, ScenarioOutcome, TopologySpec, Trial, TrialResult,
};
use sc_sim::{PortId, TimerToken};
use sc_traffic::TrafficSource;
use std::sync::OnceLock;
use supercharger::engine::{EngineAction, PeerSpec};
use supercharger::{Controller, Engine, EngineConfig};

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

/// The detect multiplier the builder gives every BFD session.
const DETECT_MULT: u64 = 3;

/// The wire's share of a measured gap, beyond the probe clock: the
/// flow-mod's hop to the switch, and the backup path's hops to the sink
/// against the dead one's.
const WIRE: SimDuration = SimDuration::from_micros(100);

/// The paper's closed-form convergence model, from configuration and
/// calibration constants alone, never from a run.
struct Model {
    cal: Calibration,
    bfd_interval: SimDuration,
    reaction: SimDuration,
    /// The switch's latency for the first flow-mod of a burst.
    install: SimDuration,
    probe_gap: SimDuration,
}

impl Model {
    fn of(cfg: &ScenarioConfig) -> Model {
        Model {
            cal: cfg.cal,
            bfd_interval: cfg.bfd_interval,
            reaction: cfg.reaction_delay,
            install: SwitchConfig::paper_defaults("sw").install_base,
            // The paper's 14 kpps per flow unless the config names a rate.
            probe_gap: SimDuration::from_secs(1) / cfg.rate_pps.unwrap_or(14_000),
        }
    }

    /// BFD detection, earliest and latest: the session times out
    /// `DETECT_MULT` intervals after the last control packet it heard,
    /// and that packet left at most one interval before the cut.
    fn detection(&self) -> (SimDuration, SimDuration) {
        (
            self.bfd_interval * (DETECT_MULT - 1),
            self.bfd_interval * DETECT_MULT,
        )
    }

    /// The supercharged fast path after detection: the controller's
    /// reaction and one group flow-mod, whatever the table size.
    fn fast_path(&self) -> SimDuration {
        self.reaction + self.install
    }

    /// The first `entries` writes of a FIB walk at `pct` percent of the
    /// calibrated per-entry cost.
    fn walk(&self, entries: u64, pct: u64) -> SimDuration {
        self.cal.fib_entry_update * entries * pct / 100
    }

    /// How much longer than cut-to-repair a flow's measured gap can be:
    /// the gap opens with the last probe across the cut and closes with
    /// the first across the repair, each up to one probe gap off.
    fn late(&self) -> SimDuration {
        self.probe_gap * 2 + WIRE
    }

    /// From detection to the sink seeing the flow whose prefix is at
    /// `pos` in R1's FIB walk recover: earliest and latest.
    fn repair(&self, mode: Mode, pos: u64) -> (SimDuration, SimDuration) {
        let jitter = self.cal.fib_entry_jitter_pct as u64;
        let late = self.late();
        match mode {
            // R1 purges the dead peer, then walks its FIB up to `pos`.
            Mode::Stock => {
                let purge = self.cal.peer_down_processing;
                (
                    purge + self.walk(pos + 1, 100 - jitter),
                    purge + self.walk(pos + 1, 100 + jitter) + late,
                )
            }
            // One group rewrite repairs every flow. R1 also walks its
            // FIB as the controller re-announces the backup's routes,
            // and that walk reaches the first few dozen prefixes before
            // the flow-mod lands.
            Mode::Supercharged => {
                let rewalk = self.cal.update_processing + self.walk(pos + 1, 100 - jitter);
                (self.fast_path().min(rewalk), self.fast_path() + late)
            }
        }
    }

    /// The closed-form envelope of the convergence of the flow at walk
    /// position `pos`: detection and repair, each at its extremes.
    fn envelope(&self, mode: Mode, pos: u64) -> (SimDuration, SimDuration) {
        let (d_lo, d_hi) = self.detection();
        let (r_lo, r_hi) = self.repair(mode, pos);
        (d_lo + r_lo, d_hi + r_hi)
    }
}

/// What the worst supercharged flow leaves after detection and the
/// fast path, in ns.
fn fast_path_residual_ns(r: &ScenarioOutcome, cfg: &ScenarioConfig) -> i64 {
    let terms = detection(r) + Model::of(cfg).fast_path();
    r.stats().max.as_nanos() as i64 - terms.as_nanos() as i64
}

/// The band the model allows that residual: [`Model::late`].
fn residual_band(cfg: &ScenarioConfig) -> std::ops::RangeInclusive<i64> {
    0..=Model::of(cfg).late().as_nanos() as i64
}

/// One Fig. 5 cell: a mode and a table size, cut `offset` into a BFD
/// interval.
struct Cell {
    mode: Mode,
    offset: SimDuration,
    cfg: ScenarioConfig,
    /// Each flow's position in R1's FIB walk.
    positions: Vec<u64>,
    outcome: ScenarioOutcome,
}

impl Cell {
    /// Every flow inside the model: detection inside BFD's window, and
    /// each flow's repair inside its own term. Together they put each
    /// flow inside [`Model::envelope`].
    fn assert_in_model(&self) {
        let r = &self.outcome;
        let model = Model::of(&self.cfg);
        let cell = format!(
            "{} at {} prefixes, cut {} into the BFD interval",
            self.mode.label(),
            self.cfg.prefixes,
            self.offset
        );
        assert_eq!(r.unrecovered, 0, "{cell}");
        let d = detection(r);
        let (d_lo, d_hi) = model.detection();
        assert!(
            d_lo <= d && d <= d_hi,
            "{cell}: detection {d} outside [{d_lo}, {d_hi}]"
        );
        for (f, (&gap, &pos)) in r.per_flow.iter().zip(&self.positions).enumerate() {
            let (lo, hi) = model.repair(self.mode, pos);
            assert!(
                d + lo <= gap && gap <= d + hi,
                "{cell}: flow {f} at walk position {pos} converged in {gap}, \
                 model [{}, {}] after detection {d}",
                d + lo,
                d + hi
            );
        }
    }
}

/// Each flow's position in R1's FIB walk: the rank of its covering
/// (longest matching) prefix in ascending key order, the order
/// `LocRib::remove_all` walks.
fn walk_positions(cfg: &ScenarioConfig) -> Vec<u64> {
    let scn = build_scenario(&TopologySpec::Fig4Lab, Mode::Stock, cfg);
    assert!(scn.universe.windows(2).all(|w| w[0] < w[1]));
    scn.flow_ips
        .iter()
        .map(|&ip| {
            let (pos, _) = scn
                .universe
                .iter()
                .enumerate()
                .filter(|(_, p)| p.contains(ip))
                .max_by_key(|(_, p)| p.len())
                .expect("every flow has a covering prefix");
            pos as u64
        })
        .collect()
}

/// Fig. 5's primary cut at every count in `counts`, both modes, 10
/// flows, the cut at `offsets` points spread evenly over one BFD
/// interval; run on the suite's worker pool, in (mode, count, offset)
/// order.
fn fig5_cells(counts: &[u32], offsets: u64) -> Vec<Cell> {
    let cfgs: Vec<(ScenarioConfig, Vec<u64>)> = counts
        .iter()
        .map(|&prefixes| {
            let cfg = ScenarioConfig {
                prefixes,
                flows: 10,
                ..ScenarioConfig::default()
            };
            let positions = walk_positions(&cfg);
            (cfg, positions)
        })
        .collect();
    let mut cells = Vec::new();
    let mut trials = Vec::new();
    for mode in [Mode::Stock, Mode::Supercharged] {
        for (cfg, positions) in &cfgs {
            for k in 0..offsets {
                let offset = cfg.bfd_interval * k / offsets;
                trials.push(Trial {
                    topology: TopologySpec::Fig4Lab,
                    script: EventScript::new(
                        "primary-cut",
                        vec![ScenarioEvent::LinkDown {
                            link: LinkRef::ProviderSwitch(ProviderSel::Primary),
                            at: offset,
                        }],
                    ),
                    mode,
                    cfg: cfg.clone(),
                });
                cells.push((mode, offset, cfg, positions));
            }
        }
    }
    run_trials(&trials, None, |_, _| {})
        .into_iter()
        .zip(cells)
        .map(|(result, (mode, offset, cfg, positions))| match result {
            TrialResult::Ok(outcome) => Cell {
                mode,
                offset,
                cfg: cfg.clone(),
                positions: positions.clone(),
                outcome,
            },
            TrialResult::Err(e) => panic!("fig5 cell failed: {e:?}"),
        })
        .collect()
}

/// Fig. 5's per-push cells: the primary cut at 1k, 5k, 10k and 50k
/// prefixes, both modes, run once for every test that reads them.
fn per_push_cells() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| fig5_cells(&[1_000, 5_000, 10_000, 50_000], 1))
}

/// The worst flow of each count, stock over supercharged, in count
/// order: the speedup must grow with the table.
fn assert_speedup_grows(cells: &[Cell]) {
    let worst = |mode: Mode, prefixes: u32| {
        cells
            .iter()
            .filter(|c| c.mode == mode && c.cfg.prefixes == prefixes)
            .map(|c| c.outcome.stats().max)
            .max()
            .expect("the sweep ran this cell")
    };
    let mut counts: Vec<u32> = cells.iter().map(|c| c.cfg.prefixes).collect();
    counts.sort_unstable();
    counts.dedup();
    let mut prev = 1.0;
    for prefixes in counts {
        let ratio = worst(Mode::Stock, prefixes).as_secs_f64()
            / worst(Mode::Supercharged, prefixes).as_secs_f64();
        assert!(
            ratio > prev,
            "{prefixes} prefixes: speedup {ratio:.1}x, not above {prev:.1}x"
        );
        prev = ratio;
    }
}

/// Every flow of the detection-phase sweep sits inside the model, and
/// the cut offsets move detection across at least half of BFD's
/// window at every (mode, count), so the sweep provably explores it.
fn assert_sweep_explores_detection(cells: &[Cell]) {
    for cell in cells {
        cell.assert_in_model();
    }
    // Cells come in (mode, count, offset) order: one chunk per offset sweep.
    for sweep in cells.chunk_by(|a, b| (a.mode, a.cfg.prefixes) == (b.mode, b.cfg.prefixes)) {
        let seen = sweep.iter().map(|c| detection(&c.outcome));
        let spread = seen.clone().max().unwrap() - seen.min().unwrap();
        let (d_lo, d_hi) = Model::of(&sweep[0].cfg).detection();
        assert!(
            spread * 2 >= d_hi - d_lo,
            "{} at {} prefixes: detection spans only {spread} of [{d_lo}, {d_hi}]",
            sweep[0].mode.label(),
            sweep[0].cfg.prefixes
        );
    }
}

/// The paper: the supercharged router converges within ~150 ms wherever
/// the flow's prefix sits and whatever the table size. Every flow of
/// every per-push cell sits inside the model, the model's worst case is
/// under 150 ms, and one backup group takes one rewrite.
#[test]
fn supercharged_converges_within_150ms_regardless_of_position() {
    let cells = per_push_cells();
    for cell in cells.iter().filter(|c| c.mode == Mode::Supercharged) {
        cell.assert_in_model();
        assert_eq!(cell.outcome.flow_rewrites, Some(1), "{}", cell.cfg.prefixes);
        let (_, worst) = Model::of(&cell.cfg).envelope(Mode::Supercharged, 0);
        assert!(
            worst <= SimDuration::from_millis(150),
            "model worst {worst}"
        );
    }
}

/// The stock router's flow converges after detection, the peer-down
/// processing and the walk up to its prefix: every flow of every
/// per-push cell sits inside that linear model.
#[test]
fn stock_converges_linearly_with_table_size() {
    for cell in per_push_cells().iter().filter(|c| c.mode == Mode::Stock) {
        cell.assert_in_model();
    }
}

/// The gap grows with the table, the paper's core claim (~900× at
/// 500k; the whole x-axis is `fig5_full_axis_sits_in_the_model`'s):
/// the stock/supercharged ratio of worst flows rises from count to
/// count. And the model's stock best case, the first prefix of the
/// walk, is past its supercharged worst case (the paper: 375 ms against
/// 150 ms).
#[test]
fn supercharging_wins_by_a_growing_factor() {
    let cells = per_push_cells();
    assert_speedup_grows(cells);
    let model = Model::of(&cells[0].cfg);
    let (stock_best, _) = model.envelope(Mode::Stock, 0);
    let (_, supercharged_worst) = model.envelope(Mode::Supercharged, 0);
    assert!(stock_best > supercharged_worst);
}

/// The cut at ten offsets across one BFD interval at 1k prefixes, both
/// modes: every flow inside the model, and detection spread over at
/// least half of BFD's window.
#[test]
fn detection_phase_sweep_explores_the_bfd_window() {
    assert_sweep_explores_detection(&fig5_cells(&[1_000], 10));
}

/// Fig. 5's whole x-axis: the paper's nine table sizes, the cut at ten
/// offsets across one BFD interval, both modes — every flow inside the
/// model, and the speedup growing to the last point. Minutes in
/// release; a scheduled CI job runs it:
/// `cargo test --release -p sc-scenarios --test lab_e2e -- --ignored`.
#[test]
#[ignore]
fn fig5_full_axis_sits_in_the_model() {
    let counts: Vec<u32> = PAPER_STOCK_MAX_S.iter().map(|&(n, _)| n).collect();
    let cells = fig5_cells(&counts, 10);
    assert_sweep_explores_detection(&cells);
    assert_speedup_grows(&cells);
}

/// The Fig. 4 lab at 1k prefixes and 10 flows, laid out like a trial
/// of the primary cut: converged, probes flowing, and run to the
/// instant the measurement window opens, 1 ms before the cut. The
/// window closes where the runner's would.
fn fig4_window_opens(mode: Mode) -> (BuiltScenario, CycleWindow) {
    let cfg = ScenarioConfig {
        flows: 10,
        ..base(1_000)
    };
    let mut lab = build_scenario(&TopologySpec::Fig4Lab, mode, &cfg);
    let converged = lab.run_until_converged();
    let budget = expected_budget(mode, &cfg);
    let horizon = budget + budget / 2 + SimDuration::from_secs(1);
    let plan = plan_cycle_measurement(converged, 14_000, &[SimDuration::ZERO], horizon);
    arm_traffic(&mut lab.world, lab.source, lab.sink, &plan);
    EventScript::primary_cut().apply(&mut lab, plan.t_origin);
    let window = plan.cycles[0];
    lab.world.run_until(window.t_open);
    (lab, window)
}

/// R1's FIB next hop for every universe prefix, in universe order.
fn fib_next_hops(lab: &BuiltScenario) -> Vec<Ipv4Addr> {
    let r1 = lab.world.node::<LegacyRouter>(lab.r1);
    lab.universe
        .iter()
        .map(|&p| {
            r1.fib()
                .get(p)
                .expect("every universe prefix is installed")
                .next_hop
        })
        .collect()
}

/// How many universe prefixes R1's FIB does not send to R3.
fn off_r3(lab: &BuiltScenario) -> usize {
    fib_next_hops(lab).iter().filter(|&&nh| nh != IP_R3).count()
}

/// The switch port provider `i`'s LAN link lands on: its `PortId(0)`
/// is the LAN link, and the far end is the switch.
fn switch_port_of(lab: &BuiltScenario, i: usize) -> u16 {
    let far = lab.world.peer_of(lab.providers[i], PortId(0));
    far.expect("the provider is wired to the switch").port.0 as u16
}

/// The switch's rules that match `vmac` as destination.
fn vmac_rules(lab: &BuiltScenario, vmac: MacAddr) -> Vec<FlowEntry> {
    let sw = lab.world.node::<OfSwitch>(lab.switch);
    sw.table()
        .entries()
        .iter()
        .filter(|e| e.matcher.eth_dst == Some(vmac))
        .cloned()
        .collect()
}

/// Fig. 1: the stock router's FIB is flat. Every entry holds its own
/// next hop, R2's before the cut, and after it the walk rewrites every
/// one of them to R3's.
#[test]
fn fig1_stock_fib_rewrites_every_entry() {
    let (mut lab, window) = fig4_window_opens(Mode::Stock);
    assert!(fib_next_hops(&lab).iter().all(|&nh| nh == IP_R2));
    lab.world.run_until(window.t_close);
    assert!(lab.world.node::<LegacyRouter>(lab.r1).is_quiescent());
    assert_eq!(off_r3(&lab), 0, "prefixes off R3 once the walk ends");
}

/// Fig. 2: the supercharged router's FIB has two stages. Every prefix
/// points at one virtual next hop, R1's ARP resolves it to a virtual
/// MAC, and one switch rule rewrites that MAC to R2's. On the cut the
/// data plane recovers in the switch: the rule moves to R3 while R1's
/// FIB has walked at most the few dozen entries the controller's
/// repair reaches in the fast path's time. R1 then converges "at its
/// typical slow pace": by the window's end every prefix points at R3
/// itself, and the retired group's rule still steers to R3.
#[test]
fn fig2_switch_recovers_before_the_fib_walks() {
    let (mut lab, window) = fig4_window_opens(Mode::Supercharged);
    let ctrl = lab.world.node::<Controller>(lab.controllers[0]);
    let live: Vec<_> = ctrl
        .engine()
        .groups()
        .iter()
        .filter(|g| !g.retired)
        .collect();
    assert_eq!(live.len(), 1, "one backup group");
    let group = live[0].clone();
    assert_eq!(group.key, vec![IP_R2, IP_R3]);
    assert!(fib_next_hops(&lab).iter().all(|&nh| nh == group.vnh));
    let now = lab.world.now();
    let r1 = lab.world.node::<LegacyRouter>(lab.r1);
    assert_eq!(r1.arp().lookup(group.vnh, now), Some(group.vmac));
    let (r2_port, r3_port) = (switch_port_of(&lab, 0), switch_port_of(&lab, 1));
    let rules = vmac_rules(&lab, group.vmac);
    assert_eq!(rules.len(), 1, "one rule for the group's VMAC");
    assert_eq!(
        rules[0].actions,
        [Action::SetDstMac(MAC_R2), Action::Output(r2_port)]
    );

    // Step to the instant the rule outputs to R3.
    const STEP: SimDuration = SimDuration::from_micros(100);
    let steered_to_r3 = |lab: &BuiltScenario| {
        vmac_rules(lab, group.vmac)[0]
            .actions
            .contains(&Action::Output(r3_port))
    };
    lab.world.run_until(window.t_fail);
    while !steered_to_r3(&lab) {
        assert!(
            lab.world.now() < window.t_close,
            "the rule never moved to R3"
        );
        lab.world.run_for(STEP);
    }
    let walked = fib_next_hops(&lab)
        .iter()
        .filter(|&&nh| nh != group.vnh)
        .count() as u64;
    // The most entries R1 writes at the fastest per-entry cost (the
    // calibration's jitter is ±10 %) in the fast path and its wire
    // time, and in one step.
    let cfg = &lab.cfg;
    let fastest_write = cfg.cal.fib_entry_update.as_nanos() * 9 / 10;
    let reach = |d: SimDuration| d.as_nanos().div_ceil(fastest_write);
    let k = reach(Model::of(cfg).fast_path() + WIRE);
    assert!(
        walked <= k + reach(STEP),
        "{walked} FIB entries left the VNH before the rule moved, more than {k} + {}",
        reach(STEP)
    );

    lab.world.run_until(window.t_close);
    assert_eq!(off_r3(&lab), 0, "prefixes off R3 when the window closes");
    let rules = vmac_rules(&lab, group.vmac);
    assert_eq!(rules.len(), 1, "the retired group's rule lingers");
    assert!(rules[0].actions.contains(&Action::Output(r3_port)));
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
    let link = lab.provider_switch_links[0];
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
    // The switch now steers the VMAC to R3.
    let r3_port = switch_port_of(&lab, 1);
    let sw = lab.world.node::<OfSwitch>(lab.switch);
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
            rule.actions.contains(&Action::Output(r3_port)),
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
            residual_band(&cfg).contains(&residual),
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
            residual_band(&cfg).contains(&residual),
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
            residual <= *residual_band(&cfg).end(),
            "{us} µs/entry: residual {residual} ns"
        );
    }
}

/// §4: the controller took 0.8 s for its worst UPDATE and 125 ms at
/// the 99th percentile, over two peers' full tables. The same workload
/// in host-independent units (R2's and R3's feeds over one 100k
/// universe, through the engine): an UPDATE costs at most one action
/// per prefix it carries, plus the flow-add of a new backup group, and
/// exactly one UPDATE creates that group — the first to give its
/// prefixes a backup. That one UPDATE is the tail.
#[test]
fn controller_work_per_update_is_its_prefixes_plus_one_group() {
    let (prefixes, seed) = (100_000, 42);
    let universe = prefix_universe(prefixes, seed);
    // (address, MAC, switch port, LOCAL_PREF, router id, origin AS)
    let peers = [
        (IP_R2, MAC_R2, 2, 200, Ipv4Addr::new(2, 2, 2, 2), 65002),
        (IP_R3, MAC_R3, 3, 100, Ipv4Addr::new(3, 3, 3, 3), 65003),
    ];
    let specs = peers
        .iter()
        .map(
            |&(id, mac, switch_port, local_pref, router_id, _)| PeerSpec {
                id,
                mac,
                switch_port,
                local_pref,
                router_id,
            },
        )
        .collect();
    let mut engine = Engine::new(EngineConfig::new("10.0.200.0/24".parse().unwrap(), specs));
    let mut group_adds = 0;
    for (peer, .., asn) in peers {
        for upd in generate_feed_for(&FeedConfig::new(prefixes, seed, peer, asn), &universe) {
            let actions = engine.process_update(peer, &upd);
            let carried = upd.nlri.len() + upd.withdrawn.len();
            assert!(
                actions.len() <= carried + 1,
                "{} actions for an UPDATE carrying {carried} prefixes",
                actions.len()
            );
            if actions
                .iter()
                .any(|a| matches!(a, EngineAction::FlowAdd { .. }))
            {
                group_adds += 1;
            }
        }
    }
    assert_eq!(engine.stats.routes_learned, 2 * prefixes as u64);
    assert_eq!(group_adds, 1, "one UPDATE creates the one backup group");
}
