//! **MRT replay trajectory** — wall-clock events/sec on the recorded-
//! data control-plane world: full MRT tables on every session and a
//! timed `BGP4MP_ET` update trace replayed at recorded (warpable)
//! inter-arrival timing.
//!
//! ```text
//! cargo run --release -p sc-bench --bin replay -- \
//!     [--smoke] [--baseline] [--scheduler wheel|heap] [--legacy-encode] \
//!     [--fixture] [--time-scale S] [--prefixes N] [--providers K] \
//!     [--bursts B] [--repeat K] [--label NAME] [--out FILE] \
//!     [--stable-out FILE] [--check BENCH_PR5.json [--tolerance 20]]
//! ```
//!
//! Emits one flat JSON object per run in the `perf` shape, so the
//! committed `BENCH_PR5.json` is produced the usual way:
//!
//! ```text
//! replay --baseline --out base.json
//! replay --out after.json
//! perf --merge base.json after.json --out BENCH_PR5.json
//! ```
//!
//! `--baseline` reconstructs the pre-PR4 control path (reference heap +
//! legacy encode) under the replay workload; the event stream is
//! identical either way (regression-tested), so the ratio isolates
//! kernel cost on recorded dynamics. `--stable-out` writes the report
//! without the wall-clock fields: identical invocations produce
//! byte-identical files — the determinism contract CI smoke checks.
//! `--fixture` replays the committed `tests/fixtures/*.mrt` pair
//! instead of the generated paper-scale archives; `--time-scale 0.1`
//! replays any trace ten times faster.

use sc_bench::replay::{
    build_replay_world, build_replay_world_from, run_replay, ReplayMeasurement, ReplayParams,
    ReplayWorld,
};
use sc_bench::{scheduler_name, Args};
use sc_mrt::TimeScale;
use sc_net::SimDuration;
use sc_sim::SchedulerKind;

/// The run JSON. `wallclock: false` omits the machine-dependent fields
/// so identical runs serialize byte-identically.
fn replay_json(
    label: &str,
    p: &ReplayParams,
    rw: &ReplayWorld,
    m: &ReplayMeasurement,
    fixture: bool,
    wallclock: bool,
) -> String {
    let mut out = format!(
        concat!(
            "{{\"label\":\"{}\",\"bench\":\"mrt_replay\",",
            "\"prefixes\":{},\"providers\":{},\"fixture\":{},\"time_scale\":\"{}\",",
            "\"scheduler\":\"{}\",\"legacy_encode\":{},",
            "\"updates_injected\":{},\"prefix_events\":{},\"trace_span_ms\":{},",
            "\"events\":{},\"updates_processed\":{},\"fib_ops_applied\":{}"
        ),
        label,
        rw.table_prefixes,
        rw.providers.len(),
        fixture,
        p.time_scale,
        scheduler_name(p.scheduler),
        p.legacy_encode,
        rw.updates_injected,
        rw.prefix_events,
        rw.trace_span.as_nanos() / 1_000_000,
        m.events,
        m.updates_processed,
        m.fib_ops_applied,
    );
    if wallclock {
        out.push_str(&format!(
            ",\"wall_ms\":{:.3},\"events_per_sec\":{}",
            m.wall.as_secs_f64() * 1e3,
            m.events_per_sec() as u64
        ));
    }
    out.push('}');
    out
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("--smoke");
    let fixture = args.flag("--fixture");
    let base = if smoke {
        ReplayParams::smoke()
    } else {
        ReplayParams::paper()
    };
    let baseline = args.flag("--baseline");
    let scheduler = args.scheduler(if baseline {
        SchedulerKind::ReferenceHeap
    } else {
        SchedulerKind::TimerWheel
    });
    let time_scale: TimeScale = args
        .raw_value("--time-scale")
        .map(|s| s.parse().unwrap_or_else(|e| panic!("{e}")))
        .unwrap_or(base.time_scale);
    let p = ReplayParams {
        prefixes: args.value("--prefixes", base.prefixes),
        providers: args.value("--providers", base.providers),
        bursts: args.value("--bursts", base.bursts),
        burst_prefixes: args.value("--burst-prefixes", base.burst_prefixes),
        burst_gap_us: args.value("--burst-gap-us", base.burst_gap_us),
        bfd_interval: SimDuration::from_micros(
            args.value("--bfd-us", base.bfd_interval.as_nanos() / 1_000),
        ),
        seed: args.value("--seed", base.seed),
        time_scale,
        scheduler,
        legacy_encode: baseline || args.flag("--legacy-encode"),
    };
    let repeat: u32 = args.value("--repeat", if smoke { 1 } else { 3 });
    let label = args.raw_value("--label").unwrap_or_else(|| {
        if baseline {
            "replay-baseline".into()
        } else if smoke {
            "replay-smoke".into()
        } else {
            "replay".into()
        }
    });

    let fixture_bytes = fixture.then(|| {
        let dir = format!("{}/../../tests/fixtures", env!("CARGO_MANIFEST_DIR"));
        let read = |name: &str| {
            let path = format!("{dir}/{name}");
            std::fs::read(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
        };
        (read("ris_rib.mrt"), read("ris_updates.mrt"))
    });
    let build = || match &fixture_bytes {
        Some((rib, trace)) => build_replay_world_from(&p, rib, trace),
        None => build_replay_world(&p),
    };

    let mut best: Option<(ReplayWorld, ReplayMeasurement)> = None;
    for _ in 0..repeat.max(1) {
        let mut rw = build();
        let m = run_replay(&mut rw);
        if best.as_ref().map(|(_, b)| m.wall < b.wall).unwrap_or(true) {
            best = Some((rw, m));
        }
    }
    let (rw, m) = best.unwrap();
    eprintln!(
        "{} events in {:.1} ms -> {:.2} M events/sec \
         ({} replayed updates over {}, {} processed, {} FIB ops)",
        m.events,
        m.wall.as_secs_f64() * 1e3,
        m.events_per_sec() / 1e6,
        rw.updates_injected,
        rw.trace_span,
        m.updates_processed,
        m.fib_ops_applied,
    );

    let json = replay_json(&label, &p, &rw, &m, fixture, true);
    println!("{json}");
    if let Some(path) = args.raw_value("--out") {
        std::fs::write(&path, format!("{json}\n")).expect("write JSON");
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.raw_value("--stable-out") {
        let stable = replay_json(&label, &p, &rw, &m, fixture, false);
        std::fs::write(&path, format!("{stable}\n")).expect("write stable JSON");
        eprintln!("wrote {path}");
    }
    // Regression gate against a committed trajectory point.
    if let Some(path) = args.raw_value("--check") {
        sc_bench::check_perf_gate(
            &path,
            m.events_per_sec() as u64,
            args.value("--tolerance", 20),
        );
    }
}
