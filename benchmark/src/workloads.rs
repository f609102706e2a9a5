//! The four workloads, their correctness checks and the sim-time numbers
//! read from their outcomes. Sizes and the reason each workload exists
//! are in `benchmark/README.md`.

use sc_lab::Mode;
use sc_net::SimDuration;
use sc_scenarios::{
    expected_budget, mode_label, EventScript, ProviderSel, ScenarioConfig, ScenarioEvent,
    ScenarioOutcome, SuiteConfig, TopologySpec,
};
use std::fmt::Write as _;

pub const NAMES: [&str; 4] = ["fig5_10k", "fig5_sc_200k", "ixp_churn", "chaos_ixp"];

/// Probe rate per flow. Pinned: today both world builders hard-code the
/// paper's 14,000 pps whatever `ScenarioConfig::rate_pps` says, so pinning
/// the same value keeps the workloads the same program after that is fixed.
pub const RATE_PPS: u64 = 14_000;

/// The source link carries 1.953 Mpps of 64-byte frames at 1 Gb/s; past
/// that its unbounded FIFO grows without limit (13.5 GB RSS at 1,000
/// flows), so no workload may offer more than this in aggregate.
pub const MAX_AGGREGATE_PPS: u64 = 1_900_000;
// Below the link rate (1 Gb/s of 64-byte frames), and it admits 135 flows
// at the pinned rate but not 136.
const _: () = assert!(MAX_AGGREGATE_PPS < 1_000_000_000 / (64 * 8));
const _: () = assert!(135 * RATE_PPS <= MAX_AGGREGATE_PPS && 136 * RATE_PPS > MAX_AGGREGATE_PPS);

/// The golden files hold seed 42 at full scale. The property checks run
/// at every seed and scale, this one included.
pub const GOLDEN_SEED: u64 = 42;

/// Chaos scripts are fixed by number, not drawn from `--seed`: whether a
/// chaos schedule tips R1 into degraded mode (convergence ~240 ms vs
/// ~700 ms, and a flow or two never recovering) flips with the schedule,
/// so seeding it would make the sim-time metrics bimodal across seeds.
/// These three keep every flow recovering at every config seed tried
/// (README, "chaos_ixp"); `--seed` still drives prefixes, feeds, flows
/// and the link-fault streams.
const CHAOS_SCRIPTS: [u64; 3] = [4, 5, 38];

pub struct Workload {
    pub name: &'static str,
    pub topology: TopologySpec,
    pub scripts: Vec<EventScript>,
    pub modes: Vec<Mode>,
    pub base: ScenarioConfig,
    /// Full scale (the sizes `BENCHMARK.json` records) or `--smoke`.
    pub full_scale: bool,
    /// The paper's ceiling on supercharged convergence, where the
    /// workload is one of its cells at full scale.
    pub paper_supercharged_max_ms: Option<f64>,
    /// The paper's printed stock convergence for this cell, likewise.
    pub paper_stock_ms: Option<f64>,
}

impl Workload {
    pub fn named(name: &str, seed: u64, smoke: bool) -> Result<Workload, String> {
        let mut base = ScenarioConfig {
            seed,
            rate_pps: Some(RATE_PPS),
            ..Default::default()
        };
        // (prefixes, flows) at full and at smoke scale.
        let size = |full: (u32, usize), small: (u32, usize)| if smoke { small } else { full };
        let both = vec![Mode::Stock, Mode::Supercharged];
        // The paper's Fig. 5 numbers hold at its sizes only.
        let paper = |ms: f64| (!smoke).then_some(ms);
        let (mut paper_supercharged_max_ms, mut paper_stock_ms) = (None, None);
        let (name, topology, scripts, modes) = match name {
            "fig5_10k" => {
                (base.prefixes, base.flows) = size((10_000, 10), (200, 4));
                paper_supercharged_max_ms = paper(PAPER_SUPERCHARGED_MAX_MS);
                paper_stock_ms = paper(PAPER_STOCK_10K_MS);
                let cut = vec![EventScript::primary_cut()];
                (NAMES[0], TopologySpec::Fig4Lab, cut, both)
            }
            "fig5_sc_200k" => {
                (base.prefixes, base.flows) = size((200_000, 10), (10_000, 4));
                paper_supercharged_max_ms = paper(PAPER_SUPERCHARGED_MAX_MS);
                let cut = vec![EventScript::primary_cut()];
                (
                    NAMES[1],
                    TopologySpec::Fig4Lab,
                    cut,
                    vec![Mode::Supercharged],
                )
            }
            "ixp_churn" => {
                (base.prefixes, base.flows) = size((10_000, 2), (400, 2));
                base.bfd_interval = SimDuration::from_millis(1);
                let churn = ScenarioEvent::ChurnBurst {
                    provider: ProviderSel::Primary,
                    at: SimDuration::ZERO,
                    count: base.prefixes / 10,
                    cycles: if smoke { 5 } else { 500 },
                    period: SimDuration::from_millis(10),
                };
                let script = vec![EventScript::new("churn", vec![churn])];
                let hub = TopologySpec::IxpHub { peers: 12 };
                (NAMES[2], hub, script, vec![Mode::Supercharged])
            }
            "chaos_ixp" => {
                (base.prefixes, base.flows) = size((2_000, 8), (100, 4));
                // The `scenarios --chaos` robustness stack, written out.
                base.invariants = true;
                base.echo_interval = Some(SimDuration::from_millis(10));
                base.controller_deadline = Some(SimDuration::from_millis(50));
                base.fallback_sessions = true;
                let scripts = CHAOS_SCRIPTS
                    .iter()
                    .map(|&s| EventScript::new(&format!("chaos-{s}"), EventScript::chaos(s).events))
                    .collect();
                (NAMES[3], TopologySpec::IxpHub { peers: 8 }, scripts, both)
            }
            other => {
                return Err(format!(
                    "unknown workload {other:?} (expected one of {NAMES:?})"
                ))
            }
        };
        if base.flows as u64 * RATE_PPS > MAX_AGGREGATE_PPS {
            return Err(format!(
                "{} flows x {RATE_PPS} pps exceeds {MAX_AGGREGATE_PPS} pps, the source link's capacity",
                base.flows
            ));
        }
        Ok(Workload {
            name,
            topology,
            scripts,
            modes,
            base,
            full_scale: !smoke,
            paper_supercharged_max_ms,
            paper_stock_ms,
        })
    }

    /// The trials in `run_suite`'s matrix order: script-major, then mode.
    pub fn trials(&self) -> Vec<(&EventScript, Mode)> {
        self.scripts
            .iter()
            .flat_map(|s| self.modes.iter().map(move |&m| (s, m)))
            .collect()
    }

    /// The whole workload as one `run_suite` matrix, for the golden
    /// writer and the trial-level parallelism metric.
    pub fn suite(&self, workers: usize) -> SuiteConfig {
        SuiteConfig {
            topologies: vec![self.topology.clone()],
            scripts: self.scripts.clone(),
            modes: self.modes.clone(),
            base: self.base.clone(),
            workers: Some(workers),
        }
    }

    /// Probe packets the source sends in one trial: flows x rate x the
    /// traffic window the runner plans (200 ms warm-up, the script, then
    /// 1.5 convergence budgets + 1 s of run-out).
    pub fn probes_sent(&self, script: &EventScript, mode: Mode) -> f64 {
        let budget = expected_budget(mode, &self.base);
        let window = SimDuration::from_millis(200)
            + script.end()
            + budget
            + budget / 2
            + SimDuration::from_secs(1);
        self.base.flows as f64 * RATE_PPS as f64 * window.as_secs_f64()
    }
}

/// The sim-time results of one repetition's outcomes.
pub struct SimResults {
    /// (flow, trial) end states measured: the operations attempted.
    pub attempted: u64,
    /// Flows still unrecovered when their trial ended: the failed ones.
    pub failed: u64,
    /// Worst per-flow convergence over the supercharged trials, ms.
    pub conv_max_ms: f64,
    /// Median of the same pooled per-flow samples, ms.
    pub conv_median_ms: f64,
    /// Pooled sample count behind the two numbers above.
    pub conv_samples: usize,
    /// Worst per-flow convergence over the stock trials, if any ran.
    pub stock_max_ms: Option<f64>,
}

pub fn sim_results(rows: &[ScenarioOutcome]) -> SimResults {
    let pooled = |mode: Mode| -> Vec<f64> {
        let mut ms: Vec<f64> = rows
            .iter()
            .filter(|r| r.mode == mode)
            .flat_map(|r| r.per_flow.iter().map(|d| d.as_nanos() as f64 / 1e6))
            .collect();
        ms.sort_by(|a, b| a.total_cmp(b));
        ms
    };
    let sc = pooled(Mode::Supercharged);
    assert!(!sc.is_empty(), "every workload has a supercharged trial");
    SimResults {
        attempted: rows.iter().map(|r| r.per_flow.len() as u64).sum(),
        failed: rows.iter().map(|r| r.unrecovered as u64).sum(),
        conv_max_ms: sc[sc.len() - 1],
        conv_median_ms: crate::stats::summarize(&sc).median,
        conv_samples: sc.len(),
        stock_max_ms: pooled(Mode::Stock).last().copied(),
    }
}

/// The benchmark's own projection of a repetition's outcomes: per trial
/// and cycle, the mode, sorted per-flow convergence, unrecovered count
/// and the sim-time of setup. Deliberately not the repo's report JSON and
/// free of event counts, so a kernel change that removes events or a
/// report that grows a column leaves it byte-identical.
pub fn project(workload: &str, seed: u64, rows: &[ScenarioOutcome]) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"trials\":[\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"topology\":\"{}\",\"script\":\"{}\",\"mode\":\"{}\",\"setup_ns\":{},\"unrecovered\":{},\"cycles\":[",
            r.topology,
            r.script,
            mode_label(r.mode),
            r.setup_time.as_nanos(),
            r.unrecovered
        );
        for (j, c) in r.cycles.iter().enumerate() {
            let mut ns: Vec<u64> = c.per_flow.iter().map(|d| d.as_nanos()).collect();
            ns.sort_unstable();
            let ns: Vec<String> = ns.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                "{}{{\"unrecovered\":{},\"per_flow_ns\":[{}]}}",
                if j > 0 { "," } else { "" },
                c.unrecovered,
                ns.join(",")
            );
        }
        out.push_str(if i + 1 < rows.len() { "]},\n" } else { "]}\n" });
    }
    out.push_str("]}\n");
    out
}

fn golden(workload: &str) -> &'static str {
    match workload {
        "fig5_10k" => include_str!("../golden/fig5_10k.json"),
        "fig5_sc_200k" => include_str!("../golden/fig5_sc_200k.json"),
        "ixp_churn" => include_str!("../golden/ixp_churn.json"),
        "chaos_ixp" => include_str!("../golden/chaos_ixp.json"),
        other => unreachable!("no golden for {other}"),
    }
}

/// The paper's Fig. 5 references: a stock router at 10k prefixes takes up
/// to 3.4 s (the `fig5` bin accepts 25% around it), a supercharged one at
/// most 150 ms at any table size.
const PAPER_STOCK_10K_MS: f64 = 3_400.0;
const PAPER_SUPERCHARGED_MAX_MS: f64 = 150.0;

/// Check one repetition's outcomes. The properties are checked at every
/// seed: a golden file only says "as recorded", so it must not stand in
/// for them. At seed 42 and full scale the outcomes must also match the
/// golden byte for byte, which proves the repetitions identical.
pub fn check(w: &Workload, rows: &[ScenarioOutcome]) -> Result<(), String> {
    let expected = w.trials().len();
    if rows.len() != expected {
        return Err(format!("{} of {expected} trials completed", rows.len()));
    }
    if w.full_scale
        && w.base.seed == GOLDEN_SEED
        && project(w.name, w.base.seed, rows) != golden(w.name)
    {
        return Err(format!(
            "{}: outcomes differ from golden/{}.json (seed {GOLDEN_SEED})",
            w.name, w.name
        ));
    }
    let sim = sim_results(rows);
    if let Some(limit) = w.paper_supercharged_max_ms {
        if sim.conv_max_ms > limit {
            return Err(format!(
                "{}: supercharged convergence {} ms exceeds the paper's {limit} ms",
                w.name, sim.conv_max_ms
            ));
        }
    }
    if let Some(paper) = w.paper_stock_ms {
        let stock = sim
            .stock_max_ms
            .expect("a cell with a stock reference runs stock");
        if (stock - paper).abs() > 0.25 * paper {
            return Err(format!(
                "{}: stock convergence {stock} ms is not within 25% of the paper's {paper} ms",
                w.name
            ));
        }
    }
    // Do no harm: where both modes ran a script, supercharging is no
    // slower than stock in any cycle.
    for sc in rows.iter().filter(|r| r.mode == Mode::Supercharged) {
        let stock = rows
            .iter()
            .find(|r| r.mode == Mode::Stock && r.script == sc.script && r.topology == sc.topology);
        let Some(stock) = stock else { continue };
        for (i, (a, b)) in sc.cycles.iter().zip(&stock.cycles).enumerate() {
            let (a, b) = (a.per_flow.iter().max(), b.per_flow.iter().max());
            if a > b {
                return Err(format!(
                    "{}/{} cycle {i}: supercharged {a:?} slower than stock {b:?}",
                    w.name, sc.script
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_build_at_both_scales_and_others_are_refused() {
        for name in NAMES {
            for smoke in [false, true] {
                let w = Workload::named(name, 7, smoke).unwrap();
                assert_eq!(w.name, name);
                assert_eq!(w.base.seed, 7);
                assert_eq!(w.base.rate_pps, Some(RATE_PPS));
                assert!(w.base.flows as u64 * RATE_PPS <= MAX_AGGREGATE_PPS);
                assert_eq!(w.trials().len(), w.scripts.len() * w.modes.len());
            }
        }
        assert!(Workload::named("fig5", 1, false).is_err());
    }

    #[test]
    fn paper_references_apply_to_the_fig5_cells_at_full_scale_only() {
        let refs = |name, smoke| {
            let w = Workload::named(name, 1, smoke).unwrap();
            (w.paper_supercharged_max_ms, w.paper_stock_ms)
        };
        assert_eq!(refs("fig5_10k", false), (Some(150.0), Some(3_400.0)));
        assert_eq!(refs("fig5_sc_200k", false), (Some(150.0), None));
        for name in NAMES {
            assert_eq!(refs(name, true), (None, None), "{name} smoke");
        }
        assert_eq!(refs("ixp_churn", false), (None, None));
        assert_eq!(refs("chaos_ixp", false), (None, None));
    }
}
