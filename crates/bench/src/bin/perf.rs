//! **Perf trajectory** — wall-clock events/sec on two end-to-end
//! worlds: the data-plane forwarding world (source → full-FIB router →
//! sink) and, with `--churn`, the control-plane churn world (full
//! feeds + BFD + scripted withdraw/re-announce bursts).
//!
//! ```text
//! cargo run --release -p sc-bench --bin perf -- \
//!     [--smoke] [--prefixes N] [--flows N] [--rate PPS] [--ms MS] \
//!     [--scheduler wheel|heap] [--repeat K] [--label NAME] [--out FILE]
//! cargo run --release -p sc-bench --bin perf -- \
//!     --churn [--smoke] [--baseline] [--scheduler wheel|heap] \
//!     [--legacy-encode] [--prefixes N] [--providers K] [--bursts B]
//! cargo run --release -p sc-bench --bin perf -- \
//!     --merge baseline.json after.json [--out BENCH_PR4.json]
//! cargo run --release -p sc-bench --bin perf -- \
//!     --repeat 3 --check BENCH_PR3.json [--tolerance 20]
//! ```
//!
//! Emits one flat JSON object per run: the world parameters (all
//! deterministic) plus the wall-clock readings (machine-dependent).
//! `--repeat K` keeps the fastest of K runs — the usual noise guard.
//! `--merge A B` combines two run files into the committed
//! `BENCH_PRn.json` shape (`{"baseline":…,"after":…,"speedup":…}`),
//! which is how the per-PR perf trajectory is regenerated.
//!
//! `--churn --baseline` reconstructs the pre-refactor control path
//! (reference heap scheduler + fresh-`Vec` encode); the event stream
//! is identical either way, so the events/s ratio isolates kernel cost.
//! `--check FILE` compares the run against the `after` entry of a
//! committed trajectory point and fails (exit 1) on a regression
//! beyond the tolerance (percent, default 20) — tolerance-gated so
//! run-to-run jitter does not flake the build. Run the check at the
//! *same scale* as the committed point (the trajectory files record
//! paper-scale runs, so no `--smoke`): absolute events/s across
//! different world sizes is not comparable.

use sc_bench::churn::{build_churn_world, run_churn, ChurnMeasurement, ChurnParams};
use sc_bench::fwd::{build_forwarding_world, run_forwarding, FwdMeasurement, FwdParams};
use sc_bench::{scheduler_name, Args};
use sc_net::SimDuration;
use sc_sim::SchedulerKind;

fn run_json(label: &str, p: FwdParams, m: &FwdMeasurement) -> String {
    format!(
        concat!(
            "{{\"label\":\"{}\",\"bench\":\"dataplane_forward\",",
            "\"prefixes\":{},\"flows\":{},\"rate_pps\":{},\"virtual_ms\":{},",
            "\"events\":{},\"packets_sent\":{},\"packets_forwarded\":{},",
            "\"wall_ms\":{:.3},\"events_per_sec\":{},\"packets_per_sec\":{}}}"
        ),
        label,
        p.prefixes,
        p.flows,
        p.rate_pps,
        p.window.as_nanos() / 1_000_000,
        m.events,
        m.packets_sent,
        m.packets_forwarded,
        m.wall.as_secs_f64() * 1e3,
        m.events_per_sec() as u64,
        m.packets_per_sec() as u64,
    )
}

/// Pull an integer field out of a flat run JSON (the merge path; the
/// workspace deliberately carries no JSON parser).
fn extract_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let digits: String = json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Pull a string field out of a flat run JSON.
fn extract_str(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let at = json.find(&needle)? + needle.len();
    let end = json[at..].find('"')?;
    Some(json[at..at + end].to_string())
}

/// Split a JSON object's top level into `(key, raw value)` pairs —
/// string/escape-aware, depth-tracked, no JSON parser. Raw values keep
/// their exact bytes, so whatever a hand-edited trajectory point
/// carries survives a round trip.
fn top_level_fields(json: &str) -> Vec<(String, String)> {
    let body = json
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .unwrap_or_default();
    let mut fields = Vec::new();
    let (mut depth, mut in_str, mut esc) = (0u32, false, false);
    let mut start = 0usize;
    for (i, c) in body.char_indices() {
        match c {
            _ if esc => esc = false,
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            ',' if !in_str && depth == 0 => {
                fields.push(body[start..i].to_string());
                start = i + 1;
            }
            _ => {}
        }
    }
    if !body[start..].trim().is_empty() {
        fields.push(body[start..].to_string());
    }
    fields
        .into_iter()
        .filter_map(|f| {
            let f = f.trim();
            let (k, v) = f.split_once(':')?;
            Some((k.trim().trim_matches('"').to_string(), v.trim().to_string()))
        })
        .collect()
}

/// The keys the merged shape itself owns; anything else on a prior
/// trajectory point (scaling arrays, notes, …) is cargo to preserve.
const MERGE_KEYS: [&str; 4] = ["bench", "speedup_events_per_sec", "baseline", "after"];

/// Resolve one `--merge` operand to `(flat run JSON, extra fields)`.
/// A plain run file passes through; a previously merged trajectory
/// point stands in for its own `after` run — so
/// `--merge BENCH_PRn.json new.json` chains PRs without re-running the
/// old baseline — and donates its extra top-level keys.
fn unwrap_point(json: &str) -> (String, Vec<(String, String)>) {
    let fields = top_level_fields(json);
    match fields.iter().find(|(k, _)| k == "after") {
        Some((_, after_run)) => (
            after_run.clone(),
            fields
                .iter()
                .filter(|(k, _)| !MERGE_KEYS.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        None => (json.trim().to_string(), Vec::new()),
    }
}

fn merge_points(baseline_raw: &str, after_raw: &str) -> String {
    let (baseline, extra_b) = unwrap_point(baseline_raw);
    let (after, extra_a) = unwrap_point(after_raw);
    let bench = extract_str(&baseline, "bench").unwrap_or_else(|| "dataplane_forward".into());
    let b = extract_u64(&baseline, "events_per_sec").expect("baseline events_per_sec");
    let a = extract_u64(&after, "events_per_sec").expect("after events_per_sec");
    let speedup = a as f64 / b.max(1) as f64;
    let mut out = format!(
        "{{\"bench\":\"{bench}\",\"speedup_events_per_sec\":{speedup:.2},\n \"baseline\":{baseline},\n \"after\":{after}"
    );
    // Extra keys ride along, the newer file winning a name collision.
    let mut extras = extra_b;
    for (k, v) in extra_a {
        extras.retain(|(ek, _)| *ek != k);
        extras.push((k, v));
    }
    for (k, v) in extras {
        out.push_str(&format!(",\n \"{k}\":{v}"));
    }
    out.push_str("}\n");
    out
}

fn merge(baseline_path: &str, after_path: &str) -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .unwrap_or_else(|e| panic!("read {p}: {e}"))
            .trim()
            .to_string()
    };
    merge_points(&read(baseline_path), &read(after_path))
}

fn churn_json(label: &str, p: ChurnParams, m: &ChurnMeasurement) -> String {
    format!(
        concat!(
            "{{\"label\":\"{}\",\"bench\":\"control_churn\",",
            "\"prefixes\":{},\"providers\":{},\"bursts\":{},\"burst_prefixes\":{},",
            "\"scheduler\":\"{}\",\"legacy_encode\":{},",
            "\"events\":{},\"updates_processed\":{},\"fib_ops_applied\":{},",
            "\"wall_ms\":{:.3},\"events_per_sec\":{}}}"
        ),
        label,
        p.prefixes,
        p.providers,
        p.bursts,
        p.burst_prefixes,
        scheduler_name(p.scheduler),
        p.legacy_encode,
        m.events,
        m.updates_processed,
        m.fib_ops_applied,
        m.wall.as_secs_f64() * 1e3,
        m.events_per_sec() as u64,
    )
}

fn run_churn_bench(args: &Args) -> (String, u64) {
    let smoke = args.flag("--smoke");
    let base = if smoke {
        ChurnParams::smoke()
    } else {
        ChurnParams::paper()
    };
    let baseline = args.flag("--baseline");
    // An explicit --scheduler overrides the --baseline default (heap),
    // so e.g. `--baseline --scheduler wheel` isolates the legacy encode
    // path.
    let scheduler = args.scheduler(if baseline {
        SchedulerKind::ReferenceHeap
    } else {
        SchedulerKind::TimerWheel
    });
    let p = ChurnParams {
        prefixes: args.value("--prefixes", base.prefixes),
        providers: args.value("--providers", base.providers),
        bursts: args.value("--bursts", base.bursts),
        burst_prefixes: args.value("--burst-prefixes", base.burst_prefixes),
        interval: SimDuration::from_micros(
            args.value("--interval-us", base.interval.as_nanos() / 1_000),
        ),
        bfd_interval: SimDuration::from_micros(
            args.value("--bfd-us", base.bfd_interval.as_nanos() / 1_000),
        ),
        seed: args.value("--seed", base.seed),
        scheduler,
        legacy_encode: baseline || args.flag("--legacy-encode"),
    };
    let repeat: u32 = args.value("--repeat", if smoke { 1 } else { 3 });
    let label = args.raw_value("--label").unwrap_or_else(|| {
        if baseline {
            "churn-baseline".into()
        } else if smoke {
            "churn-smoke".into()
        } else {
            "churn".into()
        }
    });
    let mut best: Option<ChurnMeasurement> = None;
    for _ in 0..repeat.max(1) {
        let mut cw = build_churn_world(p);
        let m = run_churn(&mut cw);
        if best.map(|b| m.wall < b.wall).unwrap_or(true) {
            best = Some(m);
        }
    }
    let m = best.unwrap();
    eprintln!(
        "{} events in {:.1} ms -> {:.2} M events/sec ({} updates, {} FIB ops)",
        m.events,
        m.wall.as_secs_f64() * 1e3,
        m.events_per_sec() / 1e6,
        m.updates_processed,
        m.fib_ops_applied,
    );
    (churn_json(&label, p, &m), m.events_per_sec() as u64)
}

fn main() {
    let args = Args::parse();

    if args.flag("--merge") {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let i = raw.iter().position(|a| a == "--merge").unwrap();
        let operands: Vec<&String> = raw[i + 1..]
            .iter()
            .take_while(|a| !a.starts_with("--"))
            .collect();
        let [b, a] = operands[..] else {
            eprintln!("usage: perf --merge <baseline.json> <after.json> [--out FILE]");
            std::process::exit(2);
        };
        let out = merge(b, a);
        match args.raw_value("--out") {
            Some(path) => {
                std::fs::write(&path, &out).expect("write merged JSON");
                println!("wrote {path}");
            }
            None => print!("{out}"),
        }
        return;
    }

    let (json, events_per_sec) = if args.flag("--churn") {
        run_churn_bench(&args)
    } else {
        let smoke = args.flag("--smoke");
        let base = if smoke {
            FwdParams::smoke()
        } else {
            FwdParams::paper()
        };
        let p = FwdParams {
            prefixes: args.value("--prefixes", base.prefixes),
            flows: args.value("--flows", base.flows),
            rate_pps: args.value("--rate", base.rate_pps),
            window: SimDuration::from_millis(
                args.value("--ms", base.window.as_nanos() / 1_000_000),
            ),
            seed: args.value("--seed", base.seed),
            scheduler: args.scheduler(SchedulerKind::TimerWheel),
        };
        let repeat: u32 = args.value("--repeat", if smoke { 1 } else { 3 });
        let label = args.raw_value("--label").unwrap_or_else(|| {
            if smoke {
                "smoke".into()
            } else {
                "paper".into()
            }
        });

        let mut best: Option<FwdMeasurement> = None;
        for _ in 0..repeat.max(1) {
            let mut fw = build_forwarding_world(p);
            let m = run_forwarding(&mut fw);
            if best.map(|b| m.wall < b.wall).unwrap_or(true) {
                best = Some(m);
            }
        }
        let m = best.unwrap();
        eprintln!(
            "{} events in {:.1} ms -> {:.2} M events/sec ({:.2} M fwd pkts/sec)",
            m.events,
            m.wall.as_secs_f64() * 1e3,
            m.events_per_sec() / 1e6,
            m.packets_per_sec() / 1e6,
        );
        (run_json(&label, p, &m), m.events_per_sec() as u64)
    };
    println!("{json}");
    if let Some(path) = args.raw_value("--out") {
        std::fs::write(&path, format!("{json}\n")).expect("write JSON");
        eprintln!("wrote {path}");
    }
    // Regression gate: compare against a committed trajectory point.
    if let Some(path) = args.raw_value("--check") {
        sc_bench::check_perf_gate(&path, events_per_sec, args.value("--tolerance", 20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN_A: &str = r#"{"label":"base","bench":"control_churn","events_per_sec":2000000}"#;
    const RUN_B: &str = r#"{"label":"new","bench":"control_churn","events_per_sec":3000000}"#;

    #[test]
    fn merges_two_flat_runs() {
        let out = merge_points(RUN_A, RUN_B);
        assert!(out.contains("\"speedup_events_per_sec\":1.50"));
        assert!(out.contains("\"baseline\":{\"label\":\"base\""));
        assert!(out.contains("\"after\":{\"label\":\"new\""));
    }

    #[test]
    fn merged_baseline_stands_in_for_its_after_run() {
        let prior = merge_points(RUN_A, RUN_B);
        let next = r#"{"label":"pr10","bench":"control_churn","events_per_sec":2970000}"#;
        let out = merge_points(&prior, next);
        // Baseline = the prior point's after (3.0 M), not its baseline.
        assert!(out.contains("\"speedup_events_per_sec\":0.99"), "{out}");
        assert!(out.contains("\"baseline\":{\"label\":\"new\""), "{out}");
        assert!(out.contains("\"after\":{\"label\":\"pr10\""), "{out}");
    }

    #[test]
    fn extra_keys_survive_the_merge_byte_for_byte() {
        let scaling = r#"[
  {"label":"width-1","events_per_sec":3168837},
  {"label":"width-2","events_per_sec":2149498}]"#;
        let prior = format!(
            "{{\"bench\":\"control_churn\",\"speedup_events_per_sec\":1.27,\n \"baseline\":{RUN_A},\n \"after\":{RUN_B},\n \"scaling_note\":\"commas, {{braces}} and [brackets] in strings\",\n \"scaling\":{scaling}}}"
        );
        let out = merge_points(
            &prior,
            r#"{"label":"pr10","bench":"control_churn","events_per_sec":3100000}"#,
        );
        assert!(
            out.contains("\"scaling_note\":\"commas, {braces} and [brackets] in strings\""),
            "{out}"
        );
        assert!(out.contains(&format!("\"scaling\":{scaling}")), "{out}");
        // And a re-merge keeps them again: the cargo is durable.
        let again = merge_points(
            &out,
            r#"{"label":"pr11","bench":"control_churn","events_per_sec":3200000}"#,
        );
        assert!(again.contains("\"scaling_note\""), "{again}");
        assert!(again.contains("\"scaling\":"), "{again}");
    }

    #[test]
    fn top_level_split_respects_nesting_and_strings() {
        let fields =
            top_level_fields(r#"{"a":1,"b":{"x":[1,2],"y":"s,t\"r"},"c":[{"k":"}"},2],"d":"e"}"#);
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b", "c", "d"]);
        assert_eq!(fields[1].1, r#"{"x":[1,2],"y":"s,t\"r"}"#);
        assert_eq!(fields[2].1, r#"[{"k":"}"},2]"#);
    }
}
