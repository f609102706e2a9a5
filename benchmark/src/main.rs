//! The perf ledger: run one workload of the supercharged-router
//! simulator, check its outputs, and print every metric by name.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S | --reps K] [--trace [0|1]] \
//!     [--smoke] [--out spans.json] [--write-golden DIR]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --all
//! ```
//!
//! An untraced run (`--trace 0`, the default) reports the end-to-end
//! metrics; a traced run reports the per-layer table. The last line of
//! standard output is one JSON object with the run's verdict and metrics.
//! See `benchmark/README.md`.

mod host;
mod kernels;
mod metrics;
mod spans;
mod stats;
mod workloads;

use metrics::{Report, END_TO_END, PER_LAYER};
use sc_scenarios::{
    build_scenario, mode_label, run_scenario_traced, run_suite, BuiltScenario, ScenarioConfig,
    ScenarioOutcome, SuiteReport, TraceArtifacts,
};
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{check, project, sim_results, SimResults, Workload, NAMES};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Fewest rounds (a repetition and a set-up pass) behind a reported time.
const MIN_ROUNDS: usize = 3;

struct Options {
    workloads: Vec<String>,
    seed: u64,
    /// How long the repetitions of one run measure for.
    seconds: f64,
    /// Exactly this many repetitions instead of a time budget.
    reps: Option<usize>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    write_golden: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: workloads::GOLDEN_SEED,
        seconds: 28.0,
        reps: None,
        trace: false,
        smoke: false,
        out: None,
        write_golden: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{arg} needs {what}"))
        };
        fn num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
            s.parse().map_err(|_| format!("{flag}: bad number {s:?}"))
        }
        match arg.as_str() {
            "--workload" => o.workloads.push(value("a workload name")?.clone()),
            "--all" => o.workloads = NAMES.iter().map(|s| s.to_string()).collect(),
            "--seed" => o.seed = num(arg, value("a number")?)?,
            "--seconds" => o.seconds = num(arg, value("a number")?)?,
            "--reps" => o.reps = Some(num(arg, value("a number")?)?),
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(PathBuf::from(value("a path")?)),
            "--write-golden" => o.write_golden = Some(PathBuf::from(value("a directory")?)),
            // `--trace`, `--trace 0`, `--trace 1`.
            "--trace" => {
                o.trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.workloads.is_empty() {
        return Err(format!(
            "name a workload: --workload <{}> or --all",
            NAMES.join("|")
        ));
    }
    if o.reps == Some(0) || o.seconds.is_nan() || o.seconds < 0.0 {
        return Err("--reps must be at least 1 and --seconds at least 0".to_string());
    }
    Ok(o)
}

/// One run's verdict: the checked metrics plus the operations counted.
struct Verdict {
    report: Report,
    sim: SimResults,
    /// Repetitions (untraced) or plain/traced pairs (traced) measured.
    reps: usize,
    /// Traced runs: `router.forwarded` per probe the pinned rate sends.
    forwards_per_probe: Option<f64>,
}

/// Time `build_scenario` + `run_until_converged` for every trial of the
/// workload on throwaway worlds: feed generation, wiring and table load
/// up to BFD-ready.
struct SetupPass {
    build_s: f64,
    converge_s: f64,
    /// Build + converge of each trial, in trial order.
    per_trial: Vec<f64>,
    /// Kernel events the set-up of all trials processed.
    events: u64,
    /// The first trial's converged world.
    first: BuiltScenario,
}

fn setup_pass(w: &Workload, spans: &mut Spans) -> SetupPass {
    let (mut build_s, mut converge_s, mut events, mut first) = (0.0, 0.0, 0, None);
    let mut per_trial = Vec::new();
    for (script, mode) in w.trials() {
        let label = format!("{}.{}", script.name, mode_label(mode));
        let (mut scn, build) = spans.scope(&format!("setup.build.{label}"), |_| {
            build_scenario(&w.topology, mode, &w.base)
        });
        let (_, converge) = spans.scope(&format!("setup.converge.{label}"), |_| {
            scn.run_until_converged()
        });
        build_s += build;
        converge_s += converge;
        per_trial.push(build + converge);
        events += scn.world.stats().events_processed;
        first.get_or_insert(scn);
    }
    SetupPass {
        build_s,
        converge_s,
        per_trial,
        events,
        first: first.expect("a workload has at least one trial"),
    }
}

fn run_untraced(w: &Workload, o: &Options) -> Result<Verdict, String> {
    // Per round, each trial's time on its own. A round is one repetition
    // of the workload and then one set-up pass, so that both are sampled
    // over the whole run and not each in its own stretch of it: the
    // host's slow phases last longer than a stretch would.
    let (mut wall, mut cpu, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss_mb = None;
    let began = Instant::now();
    let sim = loop {
        let rep = run_trials(w, false, &mut Spans::new());
        // Every repetition is checked: they must all be identical.
        check(w, &rep.rows)?;
        // One repetition is one user's run; what later rounds build
        // reuses what this one freed in ways that move the mark.
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(host::peak_rss_mb()?);
        }
        wall.push(rep.wall);
        cpu.push(rep.cpu);
        setup.push(setup_pass(w, &mut Spans::new()).per_trial);

        let rounds = wall.len();
        let more = match o.reps {
            Some(k) => rounds < k,
            // One more round of the mean length so far must end in time.
            None => {
                let spent = began.elapsed().as_secs_f64();
                rounds < MIN_ROUNDS || spent + spent / rounds as f64 <= o.seconds
            }
        };
        if !more {
            break sim_results(&rep.rows);
        }
    };
    let peak_rss_mb = peak_rss_mb.expect("at least one round ran");

    let mut report = Report::new(END_TO_END);
    report.floor("wall_s", &wall);
    report.floor("cpu_s", &cpu);
    report.floor("setup_s", &setup);
    report.value("peak_rss_mb", peak_rss_mb);
    report.value(
        "recovered_share",
        1.0 - sim.failed as f64 / sim.attempted as f64,
    );
    Ok(Verdict {
        report: report.complete()?,
        sim,
        reps: wall.len(),
        forwards_per_probe: None,
    })
}

/// One pass over the workload's trials.
struct Rep {
    rows: Vec<ScenarioOutcome>,
    artifacts: Vec<TraceArtifacts>,
    /// Wall and CPU seconds of each trial, in trial order.
    wall: Vec<f64>,
    cpu: Vec<f64>,
}

/// Run the workload's trials one by one on this thread, a span around
/// each: the closed loop the end-to-end metrics time. With `trace` the
/// simulator's flight recorder and metrics registry are on and each trial
/// returns its artifacts.
fn run_trials(w: &Workload, trace: bool, spans: &mut Spans) -> Rep {
    let cfg = ScenarioConfig {
        trace,
        ..w.base.clone()
    };
    let mut rep = Rep {
        rows: Vec::new(),
        artifacts: Vec::new(),
        wall: Vec::new(),
        cpu: Vec::new(),
    };
    for (script, mode) in w.trials() {
        let name = format!("trial.{}.{}", script.name, mode_label(mode));
        let cpu_before = host::cpu_seconds();
        let ((row, arts), wall) = spans.scope(&name, |_| {
            run_scenario_traced(&w.topology, script, mode, &cfg)
        });
        rep.cpu.push(host::cpu_seconds() - cpu_before);
        rep.wall.push(wall);
        rep.rows.push(row);
        rep.artifacts.extend(arts);
    }
    rep
}

/// A counter's value in the registry's JSON dump (0 when never touched).
fn counter(metrics_json: &str, name: &str) -> u64 {
    let counters = metrics_json
        .split("\"histograms\"")
        .next()
        .unwrap_or_default();
    let key = format!("\"{name}\":");
    counters.find(&key).map_or(0, |at| {
        counters[at + key.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("registry counters are integers")
    })
}

/// Counters copied from the simulator's registry under their own names.
const REGISTRY_COUNTERS: [&str; 12] = [
    "bgp.updates_in",
    "bgp.updates_out",
    "bfd.packets_sent",
    "router.forwarded",
    "router.updates_processed",
    "fib.ops_applied",
    "fib.apply_batches",
    "flowcache.hits",
    "flowcache.misses",
    "flowcache.invalidated",
    "ctl.flow_mods",
    "ctl.flowmod_retries",
];

fn run_traced(w: &Workload, o: &Options) -> Result<(Verdict, Spans), String> {
    host::counting(true);
    let mut spans = Spans::new();
    let (result, _) = spans.scope("traced_run", |spans| traced_body(w, o, spans));
    host::counting(false);
    Ok((result?, spans))
}

fn traced_body(w: &Workload, o: &Options, spans: &mut Spans) -> Result<Verdict, String> {
    let mut out = Report::new(PER_LAYER);

    // Pairs of a plain repetition (allocations counted, simulator
    // tracing off) and a traced one (flight recorder + registry on).
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let began = Instant::now();
    let (rows, artifacts, allocs, peak) = loop {
        host::reset_peak();
        let before = host::alloc_snapshot();
        let (plain, _) = spans.scope("rep.plain", |spans| run_trials(w, false, spans));
        let allocs = host::alloc_snapshot().since(before);
        let peak = host::peak_heap_bytes();
        plain_wall.push(plain.wall);
        check(w, &plain.rows)?;

        let (traced, _) = spans.scope("rep.traced", |spans| run_trials(w, true, spans));
        traced_wall.push(traced.wall);
        // Tracing must not change what the simulation does.
        if project(w.name, w.base.seed, &traced.rows) != project(w.name, w.base.seed, &plain.rows) {
            return Err(format!("{}: tracing changed the outcomes", w.name));
        }
        let done = match o.reps {
            Some(k) => plain_wall.len() >= k,
            None => began.elapsed().as_secs_f64() >= o.seconds / 2.0,
        };
        if done {
            break (plain.rows, traced.artifacts, allocs, peak);
        }
    };
    let sim = sim_results(&rows);
    // The same estimator as `wall_s`: each trial's fastest repetition.
    let plain_s = stats::floor(&plain_wall);

    let events: u64 = rows.iter().map(|r| r.events_processed).sum();
    out.value(
        "alloc.count_per_kevent",
        allocs.count as f64 * 1e3 / events as f64,
    );
    out.value(
        "alloc.bytes_per_kevent",
        allocs.bytes as f64 * 1e3 / events as f64,
    );
    out.value("alloc.peak_heap_mb", peak as f64 / (1024.0 * 1024.0));
    out.value("sim.events", events as f64);
    out.value("sim.events_per_s", events as f64 / plain_s);
    out.value("sim.ns_per_event", plain_s * 1e9 / events as f64);
    out.value(
        "sim.trace_on_overhead_pct",
        (stats::floor(&traced_wall) / plain_s - 1.0) * 100.0,
    );
    let records: usize = artifacts
        .iter()
        .map(|a| a.jsonl.lines().count().saturating_sub(1))
        .sum();
    out.value("sim.trace_records", records as f64);

    let registry = |name: &str| -> u64 {
        artifacts
            .iter()
            .map(|a| counter(&a.metrics_json, name))
            .sum()
    };
    for name in REGISTRY_COUNTERS {
        out.value(name, registry(name) as f64);
    }
    let (hits, misses) = (registry("flowcache.hits"), registry("flowcache.misses"));
    out.value(
        "flowcache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    // The offered load. Both topologies the workloads use put exactly two
    // routers on a probe's path (R1, then a provider; no forwarders), and
    // the registry sums `router.forwarded` over them: R1 forwards every
    // probe, the provider every one that reaches it. So the sum is 2 per
    // probe sent when nothing is lost (ixp_churn reads 1.999) and less by
    // the share lost during outages (1.75 with a stock trial's seconds of
    // blackhole). Below 1.5 the source is not sending the pinned rate:
    // 10,500 pps or less would read at most 1.5.
    assert!(
        w.topology.blueprint().forwarders.is_empty(),
        "the 2-forwards-per-probe range assumes R1 -> provider -> sink"
    );
    let sent: f64 = w.trials().iter().map(|(s, m)| w.probes_sent(s, *m)).sum();
    let per_probe = registry("router.forwarded") as f64 / sent;
    if !(1.5..=2.02).contains(&per_probe) {
        return Err(format!(
            "{}: router.forwarded is {per_probe:.3} per probe the pinned {} pps would send \
             (expected 1.5 to 2); the offered load is not what the workload pins",
            w.name,
            workloads::RATE_PPS
        ));
    }

    let samples: u64 = rows
        .iter()
        .filter_map(|r| r.invariants.as_ref())
        .map(|i| i.samples())
        .sum();
    out.value("invariant.samples", samples as f64);
    out.value(
        "unrecovered_share",
        sim.failed as f64 / sim.attempted as f64,
    );
    out.value("conv_max_ms", sim.conv_max_ms);
    out.value("conv_median_ms", sim.conv_median_ms);
    out.optional(
        "lab.speedup_x",
        sim.stock_max_ms.map(|stock| stock / sim.conv_max_ms),
    );
    out.optional(
        "lab.stock_paper_err_pct",
        sim.stock_max_ms
            .zip(w.paper_stock_ms)
            .map(|(stock, paper)| (stock - paper).abs() / paper * 100.0),
    );

    // The outcomes are moved, not cloned: only the two writers are timed.
    let suite = SuiteReport {
        rows,
        errors: Vec::new(),
    };
    let (_, report_s) = spans.scope("report", |_| {
        std::hint::black_box((suite.to_csv_stable(), suite.to_json_stable()));
    });
    out.value("scenarios.report_s", report_s);

    // Trial-level parallelism: the same suite at one and at two workers;
    // a single trial has nothing to run in parallel.
    let speedup = (w.trials().len() >= 2).then(|| {
        let (_, one) = spans.scope("suite.workers1", |_| run_suite(&w.suite(1)));
        let (_, two) = spans.scope("suite.workers2", |_| run_suite(&w.suite(2)));
        one / two
    });
    out.optional("scenarios.suite_parallel_speedup", speedup);

    let before = host::alloc_snapshot();
    let (mut setup, _) = spans.scope("setup", |spans| setup_pass(w, spans));
    out.value(
        "alloc.setup_count",
        host::alloc_snapshot().since(before).count as f64,
    );
    out.value("scenarios.build_s", setup.build_s);
    out.value("scenarios.converge_s", setup.converge_s);
    out.value(
        "scenarios.measure_s",
        plain_s - setup.build_s - setup.converge_s,
    );
    out.value("sim.setup_events", setup.events as f64);

    spans.scope("kernels", |spans| {
        kernels::run(spans, w, &mut setup.first, &mut out)
    });

    Ok(Verdict {
        report: out.complete()?,
        sim,
        reps: plain_wall.len(),
        forwards_per_probe: Some(per_probe),
    })
}

fn run_workload(name: &str, o: &Options) -> Result<(), String> {
    let w = Workload::named(name, o.seed, o.smoke)?;
    if let Some(dir) = &o.write_golden {
        let suite = run_suite(&w.suite(1));
        let path = dir.join(format!("{}.json", w.name));
        std::fs::write(&path, project(w.name, w.base.seed, &suite.rows))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        return Ok(());
    }
    let verdict = if o.trace {
        let (verdict, spans) = run_traced(&w, o)?;
        if let Some(path) = &o.out {
            std::fs::write(path, spans.to_json(w.name, o.seed))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        verdict
    } else {
        run_untraced(&w, o)?
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "== {} seed {} {} {} | {} x {} prefixes, {} flows, {} trial(s) | {} {} | {} conv samples | {} core(s)",
        w.name,
        o.seed,
        if w.full_scale { "full" } else { "smoke" },
        if o.trace { "traced" } else { "untraced" },
        w.topology.label(),
        w.base.prefixes,
        w.base.flows,
        w.trials().len(),
        verdict.reps,
        if o.trace { "plain/traced pair(s)" } else { "repetition(s)" },
        verdict.sim.conv_samples,
        cores,
    );
    if let Some(ratio) = verdict.forwards_per_probe {
        println!(
            "offered load: router.forwarded / (flows x {} pps x traffic window) = {ratio:.4}",
            workloads::RATE_PPS
        );
    }
    print!("{}", verdict.report.render());
    // `correct` is a literal on purpose: every failed check above has
    // already returned an error, which prints no result line at all.
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        verdict.sim.attempted,
        verdict.sim.failed,
        verdict.report.to_json()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = || -> Result<(), String> {
        let o = parse_args(&args)?;
        o.workloads
            .iter()
            .try_for_each(|name| run_workload(name, &o))
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // No metrics on a failed check: the error is all that prints.
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_and_human_command_lines_parse() {
        let o = parse_args(&args(
            "--workload ixp_churn --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (o.workloads.len(), o.seed, o.seconds, o.trace),
            (1, 7, 10.0, false)
        );
        let o = parse_args(&args("--workload fig5_10k --trace 1 --reps 2")).unwrap();
        assert!(o.trace && o.reps == Some(2));
        let o = parse_args(&args("--all --trace --smoke")).unwrap();
        assert!(o.trace && o.smoke && o.workloads.len() == 4);
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload x --bogus")).is_err());
        assert!(parse_args(&args("--workload x --seed")).is_err());
        assert!(parse_args(&args("--workload x --reps 0")).is_err());
    }

    #[test]
    fn registry_counters_are_read_from_the_counters_object_only() {
        let json = "{\"counters\":{\"bgp.updates_in\":12,\"router.forwarded\":3456},\
                    \"histograms\":{\"ctl.flow_mods\":{\"count\":9}}}";
        assert_eq!(counter(json, "router.forwarded"), 3456);
        assert_eq!(counter(json, "bgp.updates_in"), 12);
        assert_eq!(counter(json, "ctl.flow_mods"), 0);
    }

    /// `--smoke`: all four workloads, traced and untraced, in seconds;
    /// every metric the tables name is present exactly once
    /// (`Report::complete`), by the names `BENCHMARK.json` carries.
    #[test]
    fn smoke_runs_every_workload_and_reports_every_metric_once() {
        let _guard = host::SWITCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for name in NAMES {
            let w = Workload::named(name, 42, true).unwrap();
            let mut o = parse_args(&args("--all --smoke --reps 1")).unwrap();
            let v = run_untraced(&w, &o).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(v.report.metrics.len(), END_TO_END.len());
            assert!(v.report.metrics.iter().all(|m| m.value > 0.0), "{name}");
            assert_eq!((v.sim.failed, v.reps), (0, 1));

            o.trace = true;
            let (v, spans) = run_traced(&w, &o).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(v.report.metrics.len(), PER_LAYER.len());
            assert!(
                v.report.get("sim.events").unwrap() > v.report.get("sim.setup_events").unwrap()
            );
            // Self times of the span tree add up to the traced wall.
            let own: u64 = spans.self_ns().iter().sum();
            let json = spans.to_json(name, 42);
            assert!(json.contains("\"parent\":null,\"name\":\"traced_run\""));
            assert!(own > 0 && json.contains("kernel.sim"));
        }
    }
}
