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

use sc_bench::{fig5_label, Args, Table};
use sc_lab::{BoxStats, Csv, Mode};
use sc_net::SimDuration;
use sc_scenarios::{run_trials, EventScript, ScenarioConfig, TopologySpec, Trial, TrialResult};

/// The paper's x-axis.
const FIG5_PREFIX_COUNTS: [u32; 9] = [
    1_000, 5_000, 10_000, 50_000, 100_000, 200_000, 300_000, 400_000, 500_000,
];

/// Fig. 5's printed maxima for the non-supercharged router (seconds).
const PAPER_STOCK_MAX_S: [(u32, f64); 9] = [
    (1_000, 0.9),
    (5_000, 1.6),
    (10_000, 3.4),
    (50_000, 13.8),
    (100_000, 29.2),
    (200_000, 56.9),
    (300_000, 86.4),
    (400_000, 113.1),
    (500_000, 140.9),
];

fn paper_stock_max(prefixes: u32) -> Option<f64> {
    PAPER_STOCK_MAX_S
        .iter()
        .find(|(p, _)| *p == prefixes)
        .map(|(_, s)| *s)
}

fn main() {
    let args = Args::parse();
    let counts: Vec<u32> = if args.flag("--quick") {
        vec![1_000, 5_000, 10_000, 50_000]
    } else {
        FIG5_PREFIX_COUNTS.to_vec()
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

    let (rows, took) = sc_bench::timing::timed(|| sweep(&counts, trials, &base));
    eprintln!("sweep done in {:.1}s\n", took.as_secs_f64());
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
                Mode::Stock => paper_stock_max(row.prefixes)
                    .map(|s| format!("{s:.1}s"))
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

    let ok = check_shape(stock, supercharged);

    if let Some(path) = args.raw_value("--csv") {
        std::fs::write(&path, csv.finish()).expect("write csv");
        eprintln!("wrote {path}");
    }
    if !ok {
        std::process::exit(1);
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

/// Check the qualitative shape the paper reports and print PASS/FAIL,
/// so a run doubles as a reproduction check (`main` exits 1 on FAIL).
fn check_shape(stock: &[SweepRow], supercharged: &[SweepRow]) -> bool {
    let mut ok = true;
    // 1. Supercharged is flat and ≤ ~150ms everywhere.
    for row in supercharged {
        let max = row.stats().max;
        if max > SimDuration::from_millis(150) {
            ok = false;
            println!(
                "FAIL supercharged max at {} prefixes: {}",
                row.prefixes,
                fig5_label(max)
            );
        }
    }
    // 2. Stock grows monotonically (allowing 5% noise).
    for pair in stock.windows(2) {
        let a = pair[0].stats().max.as_secs_f64();
        let b = pair[1].stats().max.as_secs_f64();
        if b < a * 0.95 {
            ok = false;
            println!(
                "FAIL stock max not growing: {} -> {} prefixes",
                pair[0].prefixes, pair[1].prefixes
            );
        }
    }
    // 3. Stock is within 25% of the paper's printed maxima (40% below
    //    10k prefixes: the paper's own small-scale points sit above its
    //    linear trend — 375ms best case + 1k x 281us/entry puts the 1k
    //    worst case at ~0.66s, yet Fig. 5 prints 0.9s).
    for row in stock {
        if let Some(paper) = paper_stock_max(row.prefixes) {
            let got = row.stats().max.as_secs_f64();
            let tolerance = if row.prefixes < 10_000 { 0.40 } else { 0.25 };
            if (got / paper - 1.0).abs() > tolerance {
                ok = false;
                println!(
                    "FAIL stock max at {} prefixes: got {got:.1}s, paper {paper:.1}s",
                    row.prefixes
                );
            }
        }
    }
    // 4. The supercharged worst case beats the stock *best* case (the
    //    paper: 150ms < 375ms first-entry best case).
    if let (Some(s), Some(u)) = (stock.first(), supercharged.first()) {
        if u.stats().max >= s.stats().min {
            ok = false;
            println!(
                "FAIL supercharged worst ({}) must beat stock best ({})",
                fig5_label(u.stats().max),
                fig5_label(s.stats().min)
            );
        }
    }
    println!(
        "shape check: {}",
        if ok {
            "PASS (matches the paper)"
        } else {
            "FAIL (see above)"
        }
    );
    ok
}
