//! **Figure 5** — convergence time vs. number of prefixes, stock vs.
//! supercharged.
//!
//! Reproduces the paper's headline experiment: R2 and R3 loaded with the
//! same feed of N prefixes (N swept along the paper's x-axis), traffic
//! to 100 monitored flows, R2 disconnected, per-flow convergence
//! measured at the sink as the maximum inter-packet gap.
//!
//! ```text
//! cargo run --release -p sc-bench --bin fig5 [--quick] [--full] \
//!     [--trials N] [--flows N] [--csv out.csv]
//! ```
//!
//! * default: the full paper x-axis (1k … 500k), 1 trial per point;
//! * `--quick`: 1k/5k/10k/50k only (CI-sized);
//! * `--full`: the paper's 3 trials per point;
//! * `--csv`: also write the pooled samples summary as CSV.
//!
//! The bin prints; it checks nothing. The paper's claims about this
//! figure are assertions against a closed-form model in
//! `crates/scenarios/tests/lab_e2e.rs`, run by `cargo test`.
#![allow(clippy::disallowed_macros, reason = "a CLI: printing is its job")]

use sc_bench::{fig5_label, Args, Table};
use sc_lab::{BoxStats, Csv, Mode};
use sc_net::SimDuration;
use sc_router::PAPER_STOCK_MAX_S;
use sc_scenarios::{run_trials, EventScript, ScenarioConfig, TopologySpec, Trial, TrialResult};

fn main() {
    let args = Args::parse();
    let axis = PAPER_STOCK_MAX_S.iter().map(|&(p, _)| p);
    let counts: Vec<u32> = if args.flag("--quick") {
        axis.take(4).collect()
    } else {
        axis.collect()
    };
    let trials: usize = if args.flag("--full") {
        3
    } else {
        args.value("--trials", 1)
    };
    let flows: usize = args.value("--flows", 100);

    let base = ScenarioConfig {
        flows,
        seed: args.value("--seed", 42),
        ..ScenarioConfig::default()
    };

    eprintln!(
        "fig5: sweeping {:?} prefixes, {trials} trial(s) x {flows} flows per point, both modes",
        counts
    );
    eprintln!("      probe load: 64-byte UDP frames at 14 kpps per flow (the paper's rate)\n");

    let rows = sweep(&counts, trials, &base);
    let (stock, supercharged) = rows.split_at(counts.len());

    let mut table = Table::new(&[
        "prefixes",
        "mode",
        "n",
        "p5",
        "q1",
        "median",
        "q3",
        "p95",
        "max",
        "paper-max",
    ]);
    let mut csv = Csv::new(&[
        "prefixes",
        "mode",
        "n",
        "p5_ms",
        "q1_ms",
        "median_ms",
        "q3_ms",
        "p95_ms",
        "max_ms",
    ]);
    let mut speedups = Vec::new();
    for (s_row, u_row) in stock.iter().zip(supercharged) {
        for row in [s_row, u_row] {
            let st = row.stats();
            let paper = match row.mode {
                Mode::Stock => PAPER_STOCK_MAX_S
                    .iter()
                    .find(|(p, _)| *p == row.prefixes)
                    .map(|(_, s)| format!("{s:.1}s"))
                    .unwrap_or_else(|| "-".into()),
                Mode::Supercharged => "<=150ms".into(),
            };
            table.row(vec![
                row.prefixes.to_string(),
                row.mode.label().into(),
                st.n.to_string(),
                fig5_label(st.p5),
                fig5_label(st.q1),
                fig5_label(st.median),
                fig5_label(st.q3),
                fig5_label(st.p95),
                fig5_label(st.max),
                paper,
            ]);
            csv.row(&[
                row.prefixes.to_string(),
                row.mode.label().into(),
                st.n.to_string(),
                st.p5.as_millis().to_string(),
                st.q1.as_millis().to_string(),
                st.median.as_millis().to_string(),
                st.q3.as_millis().to_string(),
                st.p95.as_millis().to_string(),
                st.max.as_millis().to_string(),
            ]);
        }
        let ratio = s_row.stats().max.as_secs_f64() / u_row.stats().max.as_secs_f64().max(1e-9);
        speedups.push((s_row.prefixes, ratio));
    }

    println!("Figure 5 — convergence time distribution per flow (box stats)");
    println!("{}", table.render());

    let mut sp = Table::new(&["prefixes", "speedup (stock max / supercharged max)"]);
    for (p, r) in &speedups {
        sp.row(vec![p.to_string(), format!("{r:.0}x")]);
    }
    println!("Improvement factor (paper: 900x at 500k)");
    println!("{}", sp.render());

    if let Some(path) = args.raw_value("--csv") {
        std::fs::write(&path, csv.finish()).expect("write csv");
        eprintln!("wrote {path}");
    }
}

/// One row of the sweep: a prefix count with the per-flow samples of
/// all its trials pooled (the paper pools 3 × 100 flows).
struct SweepRow {
    mode: Mode,
    prefixes: u32,
    samples: Vec<SimDuration>,
}

impl SweepRow {
    fn stats(&self) -> BoxStats {
        BoxStats::of(&self.samples)
    }
}

/// Every (mode, prefix count, trial) cell of Fig. 4 under a primary
/// cut, through the suite's worker pool. Trial `t` at `prefixes` runs
/// seed `base.seed + t·1000 + prefixes`. Rows come back stock first,
/// each mode in `counts` order.
fn sweep(counts: &[u32], trials: usize, base: &ScenarioConfig) -> Vec<SweepRow> {
    let modes = [Mode::Stock, Mode::Supercharged];
    let mut cells = Vec::new();
    for mode in modes {
        for &prefixes in counts {
            for t in 0..trials {
                cells.push(Trial {
                    topology: TopologySpec::Fig4Lab,
                    script: EventScript::primary_cut(),
                    mode,
                    cfg: ScenarioConfig {
                        prefixes,
                        seed: base.seed + t as u64 * 1000 + prefixes as u64,
                        ..base.clone()
                    },
                });
            }
        }
    }
    let mut results = run_trials(&cells, None, |_, _| {}).into_iter();
    let mut rows = Vec::new();
    for mode in modes {
        for &prefixes in counts {
            let mut samples = Vec::new();
            for result in results.by_ref().take(trials) {
                match result {
                    TrialResult::Ok(outcome) => samples.extend(outcome.per_flow),
                    TrialResult::Err(e) => panic!("fig5 trial failed: {e:?}"),
                }
            }
            rows.push(SweepRow {
                mode,
                prefixes,
                samples,
            });
        }
    }
    rows
}
