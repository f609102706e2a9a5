//! The suite runner: execute a matrix of
//! (topology × event script × mode) trials and report per-scenario
//! convergence distributions.
//!
//! Each trial drives the phase machinery of [`sc_lab::harness`]:
//! converge the control plane, stream probes, open the measurement
//! window, fire the script, harvest per-flow maximum gaps through the
//! `sc-traffic` sink. Trials run on a worker pool ([`run_trials`]; each
//! owns its world); results are deterministic because every world is a
//! pure function of its seed and results are placed by trial index,
//! not completion order.

use crate::builder::{build_scenario, BuiltScenario, ScenarioConfig};
use crate::events::{resolve_provider, EventScript, ScenarioEvent};
use crate::json::Json;
use crate::phases::{reconstruct_cycle, CyclePhases};
use crate::topo::TopologySpec;
use sc_invariant::{
    sample_flags, InvariantRecorder, InvariantReport, NetModel, ProbeSpec, TransitPolicy,
    TransitRule, ViolationClass,
};
use sc_lab::harness::{
    arm_traffic, plan_cycle_measurement, run_cycles_and_harvest, schedule_window_samples,
};
use sc_lab::topology::{IP_SOURCE, MAC_R1, MAC_SOURCE};
use sc_lab::{BoxStats, Csv, Mode};
use sc_net::{Ipv4Prefix, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Report label for a mode: the paper's "stock" router is the legacy
/// baseline every scenario compares against.
pub fn mode_label(mode: Mode) -> &'static str {
    match mode {
        Mode::Stock => "legacy",
        Mode::Supercharged => "supercharged",
    }
}

/// The expected convergence budget for one scenario (sizes measurement
/// windows), from `sc_lab::harness::convergence_budget`.
pub fn expected_budget(mode: Mode, cfg: &ScenarioConfig) -> SimDuration {
    sc_lab::harness::convergence_budget(mode, &cfg.cal, cfg.prefixes, cfg.control_loss)
}

/// Sampling cadence of the invariant engine; also the resolution of
/// every violation-duration figure it reports.
const INVARIANT_CADENCE: SimDuration = SimDuration::from_millis(5);

/// One scripted failure epoch's measurements: the per-flow maximum gap
/// *within that cycle's window* (cycle `i` closes where cycle `i+1`
/// opens), so every down→up→re-converge cycle of a flap script is a
/// convergence event of its own.
#[derive(Clone, Debug)]
pub struct CycleOutcome {
    /// When this cycle's failure fired.
    pub fail_at: SimTime,
    /// Per-flow maximum inter-packet gap within the cycle window.
    pub per_flow: Vec<SimDuration>,
    /// Flows whose gap never closed within the cycle window.
    pub unrecovered: usize,
    /// Time R1 spent in router-driven degraded mode (every controller
    /// session down) inside this cycle's window. Zero in legacy mode.
    pub degraded: SimDuration,
    /// Causal phase breakdown reconstructed from the trace
    /// ([`crate::phases`]); `None` unless [`ScenarioConfig::trace`] was
    /// on and the cycle's anchors were observed. When present, the four
    /// phases sum exactly to this cycle's measured worst per-flow gap.
    pub phases: Option<CyclePhases>,
}

impl CycleOutcome {
    pub fn stats(&self) -> BoxStats {
        BoxStats::of(&self.per_flow)
    }
}

/// The outcome of one (topology, script, mode) trial.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    pub topology: String,
    pub script: String,
    pub mode: Mode,
    pub prefixes: u32,
    pub seed: u64,
    /// Probe rate per flow the source sent at.
    pub rate_pps: u64,
    /// Per-flow convergence pooled over the whole script: the
    /// element-wise maximum across cycle windows, one entry per flow.
    pub per_flow: Vec<SimDuration>,
    /// Flows still unrecovered in the *final* cycle (end-state health).
    pub unrecovered: usize,
    /// When the script origin fired.
    pub fail_at: SimTime,
    /// First primary-down detection after the origin, if observed.
    pub detected_at: Option<SimTime>,
    /// Virtual time consumed by setup.
    pub setup_time: SimTime,
    /// Flow rewrites issued by the controller (supercharged only).
    pub flow_rewrites: Option<usize>,
    /// Flow-mod batches re-sent after a missed barrier ack, summed over
    /// replicas (supercharged only).
    pub flowmod_retries: Option<u64>,
    /// One entry per scripted failure epoch, in onset order.
    pub cycles: Vec<CycleOutcome>,
    /// Kernel events the trial processed (deterministic: a pure
    /// function of the suite config).
    pub events_processed: u64,
    /// Per-window violation durations from the convergence-invariant
    /// engine; `None` unless [`ScenarioConfig::invariants`] is on.
    pub invariants: Option<InvariantReport>,
}

impl ScenarioOutcome {
    pub fn stats(&self) -> BoxStats {
        BoxStats::of(&self.per_flow)
    }
}

/// The exported observability artifacts of one traced trial: the
/// flight-recorder ring in both serializations plus the merged metrics
/// registry. Every field is byte-reproducible across reruns (the
/// determinism contract).
#[derive(Clone, Debug)]
pub struct TraceArtifacts {
    /// One JSON object per trace record (first line is the meta header).
    pub jsonl: String,
    /// Chrome `trace_event` JSON — open in Perfetto / `chrome://tracing`.
    pub chrome: String,
    /// The counters registry (kernel + per-node folds).
    pub metrics_json: String,
}

/// Run one scenario trial end to end.
pub fn run_scenario(
    topo: &TopologySpec,
    script: &EventScript,
    mode: Mode,
    cfg: &ScenarioConfig,
) -> ScenarioOutcome {
    run_scenario_traced(topo, script, mode, cfg).0
}

/// [`run_scenario`], also returning the trace artifacts when
/// [`ScenarioConfig::trace`] is on (`None` otherwise). The outcome is
/// identical either way — export happens after the world stops.
pub fn run_scenario_traced(
    topo: &TopologySpec,
    script: &EventScript,
    mode: Mode,
    cfg: &ScenarioConfig,
) -> (ScenarioOutcome, Option<TraceArtifacts>) {
    let mut scn = build_scenario(topo, mode, cfg);
    script.validate(&scn).unwrap_or_else(|e| {
        panic!(
            "script {:?} does not fit {}: {e}",
            script.name, scn.blueprint.label
        )
    });

    // Phase 1: converge the control plane.
    let setup_time = scn.run_until_converged();

    // Phases 2-3: probes + script, via the shared harness. Every
    // scripted failure onset gets its own measurement window.
    let cfg = &scn.cfg.clone(); // snapshot-derived feeds correct `prefixes`
    let budget = expected_budget(mode, cfg);
    let epochs = script.epochs();
    let tail = script.end().saturating_sub(*epochs.last().unwrap());
    let horizon = tail + budget + budget / 2 + SimDuration::from_secs(1);
    let rate = scn
        .world
        .node::<sc_traffic::TrafficSource>(scn.source)
        .config()
        .rate_pps;
    let plan = plan_cycle_measurement(scn.world.now(), rate, &epochs, horizon);
    arm_traffic(&mut scn.world, scn.source, scn.sink, &plan);
    script.apply(&mut scn, plan.t_origin);

    // The convergence-invariant engine: pre-schedule one FIB walk every
    // `INVARIANT_CADENCE` inside each cycle window. The samples are
    // read-only kernel events, so the trial stays byte-reproducible —
    // they just aren't free, hence the opt-in.
    let recorder = cfg.invariants.then(|| {
        let model = NetModel {
            routers: std::iter::once(scn.r1)
                .chain(scn.providers.iter().copied())
                .chain(scn.forwarders.iter().copied())
                .collect(),
            switches: vec![scn.switch],
            source: scn.source,
            sink: scn.sink,
        };
        let probe = ProbeSpec {
            src_mac: MAC_SOURCE,
            src_ip: IP_SOURCE,
            gateway_mac: MAC_R1,
            udp_src: sc_traffic::PROBE_SRC_PORT,
            udp_dst: sc_net::wire::udp::port::PROBE,
        };
        let policy = transit_policy(script, &scn, plan.t_origin);
        let flows = scn.flow_ips.clone();
        let recorder = Rc::new(RefCell::new(InvariantRecorder::new(plan.cycles.len())));
        let rec = recorder.clone();
        let sampler = Rc::new(move |world: &mut sc_sim::World, w: usize, _at: SimTime| {
            let flags = sample_flags(world, &model, probe, &policy, &flows);
            rec.borrow_mut().record(w, world.now(), flags);
        });
        schedule_window_samples(&mut scn.world, &plan, INVARIANT_CADENCE, sampler);
        recorder
    });

    // Phase 4: walk the cycle windows and harvest each.
    let harvests = run_cycles_and_harvest(&mut scn.world, scn.sink, &plan, cfg.flows);
    // Snapshot the flight recorder once (ring order == causal order) for
    // per-cycle phase reconstruction and the exported artifacts.
    let trace_records: Option<Vec<sc_sim::TraceEvent>> = scn
        .world
        .trace()
        .is_enabled()
        .then(|| scn.world.trace().records().cloned().collect());
    let cycles: Vec<CycleOutcome> = plan
        .cycles
        .iter()
        .zip(&harvests)
        .map(|(w, h)| CycleOutcome {
            fail_at: w.t_fail,
            per_flow: h.per_flow.clone(),
            unrecovered: h.unrecovered,
            degraded: scn.degraded_in_window(w.t_fail, w.t_close),
            phases: trace_records.as_deref().and_then(|recs| {
                let conv = h
                    .per_flow
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(SimDuration::ZERO);
                reconstruct_cycle(recs, w.t_fail, w.t_close, conv)
            }),
        })
        .collect();
    // Pooled view: per-flow worst gap over all cycles; end-state health
    // from the last cycle.
    let per_flow: Vec<SimDuration> = (0..cfg.flows)
        .map(|f| {
            cycles
                .iter()
                .map(|c| c.per_flow[f])
                .max()
                .unwrap_or(SimDuration::ZERO)
        })
        .collect();
    let unrecovered = cycles.last().map(|c| c.unrecovered).unwrap_or(0);

    // Export artifacts last: fold every node's lifetime counters and
    // the kernel's own into the kernel-merged registry, then serialize
    // the ring. The fold is pure inspection over stopped nodes, so the
    // outcome above is untouched.
    let artifacts = trace_records.is_some().then(|| {
        let mut folded = sc_net::metrics::Registry::enabled();
        for id in std::iter::once(scn.r1)
            .chain(scn.providers.iter().copied())
            .chain(scn.forwarders.iter().copied())
        {
            scn.world
                .node::<sc_router::LegacyRouter>(id)
                .fold_metrics(&mut folded);
        }
        for &c in &scn.controllers {
            scn.world
                .node::<supercharger::Controller>(c)
                .fold_metrics(&mut folded);
        }
        scn.world.fold_kernel_metrics(&mut folded);
        scn.world.metrics_mut().merge(&folded);
        TraceArtifacts {
            jsonl: scn.world.trace().to_jsonl(),
            chrome: scn.world.trace().to_chrome(),
            metrics_json: scn.world.metrics().to_json(),
        }
    });

    let outcome = ScenarioOutcome {
        topology: scn.blueprint.label.clone(),
        script: script.name.clone(),
        mode,
        prefixes: cfg.prefixes,
        seed: cfg.seed,
        rate_pps: rate,
        per_flow,
        unrecovered,
        fail_at: plan.t_fail,
        detected_at: scn.detected_at(plan.t_fail),
        setup_time,
        flow_rewrites: scn.flow_rewrites(),
        flowmod_retries: scn.flowmod_retries(),
        cycles,
        events_processed: scn.world.stats().events_processed,
        invariants: recorder.map(|rec| rec.borrow().clone().report()),
    };
    (outcome, artifacts)
}

/// The transit bans a script implies: a provider that withdrew a prefix
/// has disclaimed transit for it until it re-announces, so a delivered
/// probe crossing it is a violation even though connectivity looks
/// fine.
fn transit_policy(script: &EventScript, scn: &BuiltScenario, t0: SimTime) -> TransitPolicy {
    let mut rules = Vec::new();
    for ev in &script.events {
        match *ev {
            ScenarioEvent::WithdrawBurst {
                provider,
                at,
                count,
            } => {
                let i = resolve_provider(scn, provider).unwrap();
                rules.push(TransitRule {
                    node: scn.providers[i],
                    prefixes: scn.universe.iter().take(count as usize).copied().collect(),
                    from: t0 + at,
                    until: SimTime::MAX,
                });
            }
            ScenarioEvent::ChurnBurst {
                provider,
                at,
                count,
                cycles,
                period,
            } => {
                let i = resolve_provider(scn, provider).unwrap();
                let prefixes: Rc<[Ipv4Prefix]> =
                    scn.universe.iter().take(count as usize).copied().collect();
                for c in 0..cycles as u64 {
                    let from = t0 + at + period * c;
                    rules.push(TransitRule {
                        node: scn.providers[i],
                        prefixes: prefixes.clone(),
                        from,
                        until: from + period / 2,
                    });
                }
            }
            _ => {}
        }
    }
    TransitPolicy { rules }
}

/// A suite: the full matrix of topologies × scripts × modes.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    pub topologies: Vec<TopologySpec>,
    pub scripts: Vec<EventScript>,
    pub modes: Vec<Mode>,
    pub base: ScenarioConfig,
    /// Worker-pool size; `None` = one thread per available core. It
    /// never changes the report (rows land by matrix slot), only how
    /// many worlds are in memory at once and how long the suite takes.
    pub workers: Option<usize>,
}

/// A trial that died: which matrix cell, the configuration it ran
/// under, and the panic message. One bad trial no longer aborts a
/// 100-trial sweep — it lands here instead. The config fields let an
/// error row in a report say which configuration failed.
#[derive(Clone, Debug)]
pub struct TrialError {
    pub topology: String,
    pub script: String,
    pub mode: Mode,
    pub prefixes: u32,
    pub seed: u64,
    pub flows: usize,
    pub error: String,
}

/// One completed matrix cell, streamed to `run_suite_with` observers as
/// trials finish.
#[derive(Clone, Debug)]
pub enum TrialResult {
    Ok(ScenarioOutcome),
    Err(TrialError),
}

/// All trial outcomes, in matrix order (topology-major, then script,
/// then mode). Panicked trials are dropped from `rows` and recorded in
/// `errors` (also in matrix order).
#[derive(Clone, Debug)]
pub struct SuiteReport {
    pub rows: Vec<ScenarioOutcome>,
    pub errors: Vec<TrialError>,
}

/// Run the full matrix. Trials run on parallel threads; the report is
/// ordered by matrix position and fully determined by the suite config.
pub fn run_suite(suite: &SuiteConfig) -> SuiteReport {
    run_suite_with(suite, |_, _| {})
}

/// [`run_suite`], streaming: `on_trial(matrix_index, result)` is called
/// from the worker thread the moment each trial completes (completion
/// order, not matrix order — the index says which cell it is). The
/// returned report is still in matrix order. A trial that panics is
/// caught, surfaced as [`TrialResult::Err`], and does not take the rest
/// of the suite down with it. Note the default panic hook still prints
/// each caught panic (message + backtrace) to stderr — deliberate: a
/// silencing hook is process-global and would race parallel test
/// threads; treat stderr banners as diagnostics, the error rows as the
/// record.
pub fn run_suite_with(
    suite: &SuiteConfig,
    on_trial: impl Fn(usize, &TrialResult) + Sync,
) -> SuiteReport {
    let mut trials = Vec::new();
    for topo in &suite.topologies {
        for script in &suite.scripts {
            for &mode in &suite.modes {
                trials.push(Trial {
                    topology: topo.clone(),
                    script: script.clone(),
                    mode,
                    cfg: suite.base.clone(),
                });
            }
        }
    }
    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for result in run_trials(&trials, suite.workers, on_trial) {
        match result {
            TrialResult::Ok(outcome) => rows.push(outcome),
            TrialResult::Err(e) => errors.push(e),
        }
    }
    SuiteReport { rows, errors }
}

/// One trial: a (topology, script, mode) cell and the config it runs
/// under.
#[derive(Clone, Debug)]
pub struct Trial {
    pub topology: TopologySpec,
    pub script: EventScript,
    pub mode: Mode,
    pub cfg: ScenarioConfig,
}

/// Run `trials` on a bounded worker pool and return their results in
/// input order — the engine under [`run_suite`], open to sweeps whose
/// cells differ in more than (topology, script, mode), e.g. prefix
/// count and seed. `workers` is as in [`SuiteConfig::workers`];
/// `on_trial` and panic handling are as in [`run_suite_with`].
#[allow(
    clippy::disallowed_methods,
    reason = "the one sanctioned worker pool: whole trials, each on its own world"
)]
pub fn run_trials(
    trials: &[Trial],
    workers: Option<usize>,
    on_trial: impl Fn(usize, &TrialResult) + Sync,
) -> Vec<TrialResult> {
    // A bounded worker pool: each trial owns a full simulation world,
    // so running every trial at once would hold every RIB/feed in
    // memory simultaneously. Workers pull the next trial index from a
    // shared cursor; results land in their slot, so the output is
    // identical regardless of scheduling. The pool never exceeds the
    // machine's parallelism, even when `--workers` asks for more.
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let workers = workers
        .unwrap_or(avail)
        .min(avail)
        .max(1)
        .min(trials.len().max(1));
    let slots: Vec<std::sync::Mutex<Option<TrialResult>>> =
        trials.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let on_trial = &on_trial;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (slots, cursor) = (&slots, &cursor);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(t) = trials.get(i) else {
                    return;
                };
                let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_scenario(&t.topology, &t.script, t.mode, &t.cfg)
                })) {
                    Ok(outcome) => TrialResult::Ok(outcome),
                    Err(payload) => TrialResult::Err(TrialError {
                        topology: t.topology.label(),
                        script: t.script.name.clone(),
                        mode: t.mode,
                        prefixes: t.cfg.prefixes,
                        seed: t.cfg.seed,
                        flows: t.cfg.flows,
                        error: panic_message(payload.as_ref()),
                    }),
                };
                on_trial(i, &result);
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("worker filled every slot")
        })
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "trial panicked (non-string payload)".to_string()
    }
}

/// The CSV column set; `error` is last so error rows can pad every
/// metric column and append the message.
const CSV_HEADER: [&str; 28] = [
    "topology",
    "script",
    "mode",
    "prefixes",
    "flows",
    "rate_pps",
    "median_us",
    "p95_us",
    "max_us",
    "mean_us",
    "unrecovered",
    "detection_us",
    "flow_rewrites",
    "cycles",
    "cycle_median_us",
    "cycle_p95_us",
    "cycle_unrecovered",
    "events",
    "viol_blackhole_us",
    "viol_loop_us",
    "viol_transit_us",
    "degraded_us",
    "flowmod_retries",
    "detect_us",
    "notify_us",
    "program_us",
    "fib_us",
    "error",
];

impl SuiteReport {
    /// Per-scenario box statistics as CSV (durations in microseconds).
    /// Multi-epoch scripts add per-cycle columns (`;`-joined, one entry
    /// per cycle in onset order); panicked trials emit a row with blank
    /// metrics and the panic message in `error`. Identical suite configs
    /// produce byte-identical files (the determinism regression
    /// contract).
    pub fn to_csv_stable(&self) -> String {
        let mut csv = Csv::new(&CSV_HEADER);
        let us = |d: SimDuration| (d.as_nanos() / 1_000).to_string();
        for row in &self.rows {
            let s = row.stats();
            let joined = |f: &dyn Fn(&CycleOutcome) -> String| {
                row.cycles.iter().map(f).collect::<Vec<_>>().join(";")
            };
            // Invariant columns stay blank when the engine was off — a
            // zero would be indistinguishable from "checked and clean".
            let viol = |c: ViolationClass| {
                row.invariants
                    .as_ref()
                    .map(|inv| us(inv.total(c)))
                    .unwrap_or_default()
            };
            // Phase columns stay fully blank for untraced rows; a traced
            // row joins per-cycle values, blanking cycles whose anchors
            // the reconstructor could not find.
            let phase = |f: &dyn Fn(&CyclePhases) -> SimDuration| {
                if row.cycles.iter().any(|c| c.phases.is_some()) {
                    joined(&|c| c.phases.as_ref().map(|p| us(f(p))).unwrap_or_default())
                } else {
                    String::new()
                }
            };
            csv.row(&[
                row.topology.clone(),
                row.script.clone(),
                mode_label(row.mode).to_string(),
                row.prefixes.to_string(),
                row.per_flow.len().to_string(),
                row.rate_pps.to_string(),
                us(s.median),
                us(s.p95),
                us(s.max),
                us(s.mean),
                row.unrecovered.to_string(),
                row.detected_at
                    .map(|t| ((t - row.fail_at).as_nanos() / 1_000).to_string())
                    .unwrap_or_default(),
                row.flow_rewrites.map(|n| n.to_string()).unwrap_or_default(),
                row.cycles.len().to_string(),
                joined(&|c| us(c.stats().median)),
                joined(&|c| us(c.stats().p95)),
                joined(&|c| c.unrecovered.to_string()),
                row.events_processed.to_string(),
                viol(ViolationClass::Blackhole),
                viol(ViolationClass::Loop),
                viol(ViolationClass::Transit),
                // Degraded time per cycle (`;`-joined like the other
                // cycle columns); blank in legacy mode, where the
                // concept does not exist.
                if row.flowmod_retries.is_some() {
                    joined(&|c| us(c.degraded))
                } else {
                    String::new()
                },
                row.flowmod_retries
                    .map(|n| n.to_string())
                    .unwrap_or_default(),
                // Trace-reconstructed phase columns (`;`-joined per
                // cycle, like the other cycle columns); blank when the
                // trial ran untraced or a cycle's anchors were missing.
                phase(&|p| p.detect),
                phase(&|p| p.notify),
                phase(&|p| p.program),
                phase(&|p| p.fib),
                String::new(),
            ]);
        }
        for e in &self.errors {
            // Config columns stay populated on error rows, so the row
            // names the configuration that failed.
            let mut fields = vec![
                e.topology.clone(),
                e.script.clone(),
                mode_label(e.mode).to_string(),
                e.prefixes.to_string(),
                e.flows.to_string(),
            ];
            fields.resize(CSV_HEADER.len() - 1, String::new());
            fields.push(e.error.clone());
            csv.row(&fields);
        }
        csv.finish()
    }

    /// One outcome as a JSON object — the row format of both
    /// [`SuiteReport::to_json_stable`] and the `sc-bench scenarios
    /// --jsonl` stream (all durations in nanoseconds). Identical trials
    /// serialize byte-identically.
    pub fn row_json_stable(row: &ScenarioOutcome) -> Json {
        let s = row.stats();
        let ns = |d: SimDuration| Json::Int(d.as_nanos());
        let stats_obj = |s: &BoxStats| {
            let mut st = Json::object();
            st.push("n", Json::Int(s.n as u64))
                .push("min", ns(s.min))
                .push("p5", ns(s.p5))
                .push("q1", ns(s.q1))
                .push("median", ns(s.median))
                .push("q3", ns(s.q3))
                .push("p95", ns(s.p95))
                .push("max", ns(s.max))
                .push("mean", ns(s.mean));
            st
        };
        let mut obj = Json::object();
        obj.push("topology", Json::str(&row.topology))
            .push("script", Json::str(&row.script))
            .push("mode", Json::str(mode_label(row.mode)))
            .push("prefixes", Json::Int(row.prefixes as u64))
            .push("seed", Json::Int(row.seed))
            .push("rate_pps", Json::Int(row.rate_pps))
            .push("unrecovered", Json::Int(row.unrecovered as u64))
            .push("setup_time_ns", Json::Int(row.setup_time.as_nanos()))
            .push(
                "detection_ns",
                match row.detected_at {
                    Some(t) => Json::Int((t - row.fail_at).as_nanos()),
                    None => Json::str("none"),
                },
            )
            .push(
                "flow_rewrites",
                match row.flow_rewrites {
                    Some(n) => Json::Int(n as u64),
                    None => Json::str("n/a"),
                },
            )
            .push(
                "flowmod_retries",
                match row.flowmod_retries {
                    Some(n) => Json::Int(n),
                    None => Json::str("n/a"),
                },
            )
            .push(
                "degraded_ns",
                match row.flowmod_retries {
                    // Same applicability as the retries counter: the
                    // degradation machinery only exists supercharged.
                    Some(_) => ns(row
                        .cycles
                        .iter()
                        .map(|c| c.degraded)
                        .fold(SimDuration::ZERO, |a, b| a + b)),
                    None => Json::str("n/a"),
                },
            )
            .push(
                "perf",
                Json::Object(vec![("events".into(), Json::Int(row.events_processed))]),
            )
            .push("stats_ns", stats_obj(&s))
            .push(
                "per_flow_ns",
                Json::Array(
                    row.per_flow
                        .iter()
                        .map(|d| Json::Int(d.as_nanos()))
                        .collect(),
                ),
            )
            .push(
                "cycles",
                Json::Array(
                    row.cycles
                        .iter()
                        .enumerate()
                        .map(|(i, c)| {
                            let mut cy = Json::object();
                            cy.push("fail_at_ns", Json::Int(c.fail_at.as_nanos()))
                                .push("unrecovered", Json::Int(c.unrecovered as u64))
                                .push("stats_ns", stats_obj(&c.stats()));
                            if row.flowmod_retries.is_some() {
                                cy.push("degraded_ns", ns(c.degraded));
                            }
                            // Phase fields appear only on traced runs, so
                            // untraced reports keep their prior byte shape.
                            if let Some(p) = &c.phases {
                                cy.push("detect_ns", ns(p.detect))
                                    .push("notify_ns", ns(p.notify))
                                    .push("program_ns", ns(p.program))
                                    .push("fib_ns", ns(p.fib));
                            }
                            if let Some(w) =
                                row.invariants.as_ref().and_then(|inv| inv.windows.get(i))
                            {
                                cy.push("inv_samples", Json::Int(w.samples))
                                    .push(
                                        "viol_blackhole_ns",
                                        ns(w.duration(ViolationClass::Blackhole)),
                                    )
                                    .push("viol_loop_ns", ns(w.duration(ViolationClass::Loop)))
                                    .push(
                                        "viol_transit_ns",
                                        ns(w.duration(ViolationClass::Transit)),
                                    );
                            }
                            cy
                        })
                        .collect(),
                ),
            );
        // The invariant block only appears when the engine ran, so
        // reports from uninstrumented runs keep their prior byte shape.
        if let Some(inv) = &row.invariants {
            let mut o = Json::object();
            o.push("samples", Json::Int(inv.samples()))
                .push(
                    "viol_blackhole_ns",
                    ns(inv.total(ViolationClass::Blackhole)),
                )
                .push("viol_loop_ns", ns(inv.total(ViolationClass::Loop)))
                .push("viol_transit_ns", ns(inv.total(ViolationClass::Transit)))
                .push(
                    "hits_blackhole",
                    Json::Int(inv.hits(ViolationClass::Blackhole)),
                )
                .push("hits_loop", Json::Int(inv.hits(ViolationClass::Loop)))
                .push("hits_transit", Json::Int(inv.hits(ViolationClass::Transit)));
            obj.push("invariants", o);
        }
        obj
    }

    /// A trial error as a JSON object (the `--jsonl` stream emits these
    /// inline; [`SuiteReport::to_json_stable`] collects them under
    /// `errors`).
    pub fn error_json(e: &TrialError) -> Json {
        let mut obj = Json::object();
        obj.push("topology", Json::str(&e.topology))
            .push("script", Json::str(&e.script))
            .push("mode", Json::str(mode_label(e.mode)))
            .push("prefixes", Json::Int(e.prefixes as u64))
            .push("seed", Json::Int(e.seed))
            .push("flows", Json::Int(e.flows as u64))
            .push("error", Json::str(&e.error));
        obj
    }

    /// The machine-readable summary (all durations in nanoseconds):
    /// identical suite configs produce byte-identical files.
    pub fn to_json_stable(&self) -> String {
        let mut root = Json::object();
        let rows = self.rows.iter().map(Self::row_json_stable).collect();
        root.push("rows", Json::Array(rows));
        root.push(
            "errors",
            Json::Array(self.errors.iter().map(Self::error_json).collect()),
        );
        root.push(
            "speedups",
            Json::Array(
                self.speedups()
                    .into_iter()
                    .map(|(topo, script, x)| {
                        let mut o = Json::object();
                        o.push("topology", Json::str(topo))
                            .push("script", Json::str(script))
                            .push("median_speedup_x1000", Json::Int((x * 1000.0) as u64));
                        o
                    })
                    .collect(),
            ),
        );
        root.to_string()
    }

    /// Median legacy/supercharged speedup per (topology, script) pair
    /// present in both modes.
    pub fn speedups(&self) -> Vec<(String, String, f64)> {
        let mut out = Vec::new();
        for row in &self.rows {
            if row.mode != Mode::Supercharged {
                continue;
            }
            let legacy = self.rows.iter().find(|r| {
                r.mode == Mode::Stock && r.topology == row.topology && r.script == row.script
            });
            if let Some(l) = legacy {
                let sup = row.stats().median.as_nanos().max(1) as f64;
                let leg = l.stats().median.as_nanos() as f64;
                out.push((row.topology.clone(), row.script.clone(), leg / sup));
            }
        }
        out
    }
}
