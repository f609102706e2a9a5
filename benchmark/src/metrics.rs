//! The metric tables (the benchmark's contract with `BENCHMARK.json`)
//! and the printed forms of a measured metric.

use crate::stats::{floor, totals, Summary};
use std::fmt::Write as _;

/// Which clock a metric reads. Sim-time metrics and counts are pure
/// functions of the workload and seed; host-time metrics are not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time: what the modelled network would take.
    Sim,
    /// Host time: what the simulator takes on this machine.
    Host,
    /// A count or a ratio of counts.
    Count,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric's definition. `exact` marks values that repeat exactly for
/// a given workload and seed (the issue's `=`).
#[derive(Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    pub exact: bool,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    exact: bool,
) -> Def {
    Def {
        name,
        unit,
        better,
        clock,
        exact,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Sim};

/// Reported by every untraced run, on every workload.
pub const END_TO_END: &[Def] = &[
    def("wall_s", "s", Lower, Host, false),
    def("cpu_s", "s", Lower, Host, false),
    def("setup_s", "s", Lower, Host, false),
    def("peak_rss_mb", "MB", Lower, Host, false),
    def("recovered_share", "ratio", Higher, Count, true),
];

/// Reported by every traced run, on every workload. A metric that does
/// not apply to a workload (no stock trial, no invariant walks, a single
/// trial) is printed as `n/a` and carried as 0 in the result line.
pub const PER_LAYER: &[Def] = &[
    // harness
    def("alloc.count_per_kevent", "count", Lower, Count, true),
    def("alloc.bytes_per_kevent", "B", Lower, Count, true),
    def("alloc.peak_heap_mb", "MB", Lower, Count, true),
    def("alloc.setup_count", "count", Lower, Count, true),
    // sc-scenarios
    def("scenarios.build_s", "s", Lower, Host, false),
    def("scenarios.converge_s", "s", Lower, Host, false),
    def("scenarios.measure_s", "s", Lower, Host, false),
    def("scenarios.report_s", "s", Lower, Host, false),
    def("scenarios.suite_parallel_speedup", "x", Higher, Host, false),
    // sc-sim
    def("sim.events", "count", Lower, Count, true),
    def("sim.setup_events", "count", Lower, Count, true),
    def("sim.events_per_s", "1/s", Higher, Host, false),
    def("sim.ns_per_event", "ns", Lower, Host, false),
    def("sim.bare_event_ns", "ns", Lower, Host, false),
    def("sim.timer_dense_event_ns", "ns", Lower, Host, false),
    def("sim.trace_on_overhead_pct", "%", Lower, Host, false),
    def("sim.trace_records", "count", Lower, Count, true),
    // sc-net
    def("net.trie_insert_ns", "ns", Lower, Host, false),
    def("net.trie_lookup_ns", "ns", Lower, Host, false),
    def("net.trie_remove_ns", "ns", Lower, Host, false),
    def("net.frame_clone_ns", "ns", Lower, Host, false),
    def("net.frame_allocs_per_pkt", "count", Lower, Count, true),
    def("net.udp_peek_ns", "ns", Lower, Host, false),
    // sc-bgp
    def("bgp.update_encode_ns_per_prefix", "ns", Lower, Host, false),
    def("bgp.update_decode_ns_per_prefix", "ns", Lower, Host, false),
    def("bgp.decode_allocs_per_update", "count", Lower, Count, true),
    def("bgp.locrib_apply_ns_per_prefix", "ns", Lower, Host, false),
    def(
        "bgp.locrib_withdraw_ns_per_prefix",
        "ns",
        Lower,
        Host,
        false,
    ),
    def("bgp.updates_in", "count", Lower, Count, true),
    def("bgp.updates_out", "count", Lower, Count, true),
    // sc-bfd
    def("bfd.packet_roundtrip_ns", "ns", Lower, Host, false),
    def("bfd.packets_sent", "count", Lower, Count, true),
    // sc-router
    def("router.fib_apply_ns_per_op", "ns", Lower, Host, false),
    def("router.flowcache_lookup_ns", "ns", Lower, Host, false),
    def("router.flowcache_invalidate_ns", "ns", Lower, Host, false),
    def("router.forwarded", "count", Higher, Count, true),
    def("router.updates_processed", "count", Lower, Count, true),
    def("fib.ops_applied", "count", Lower, Count, true),
    def("fib.apply_batches", "count", Lower, Count, true),
    def("flowcache.hits", "count", Higher, Count, true),
    def("flowcache.misses", "count", Lower, Count, true),
    def("flowcache.invalidated", "count", Lower, Count, true),
    def("flowcache.hit_ratio", "ratio", Higher, Count, true),
    // supercharger
    def("core.engine_update_ns_per_prefix", "ns", Lower, Host, false),
    def("core.failover_plan_ns", "ns", Lower, Host, false),
    def("core.export_ns_per_prefix", "ns", Lower, Host, false),
    def("core.groups", "count", Lower, Count, true),
    def("ctl.flow_mods", "count", Lower, Count, true),
    def("ctl.flowmod_retries", "count", Lower, Count, true),
    // sc-openflow
    def("openflow.table_lookup_ns", "ns", Lower, Host, false),
    def("openflow.flowmod_codec_ns", "ns", Lower, Host, false),
    // sc-routegen / sc-mrt
    def("routegen.feed_gen_ns_per_prefix", "ns", Lower, Host, false),
    def("mrt.decode_ns_per_record", "ns", Lower, Host, false),
    def(
        "mrt.schedule_compile_ns_per_update",
        "ns",
        Lower,
        Host,
        false,
    ),
    // sc-invariant
    def("invariant.walk_ns_per_flow", "ns", Lower, Host, false),
    def("invariant.samples", "count", Higher, Count, true),
    // sc-lab
    def("lab.stock_paper_err_pct", "%", Lower, Sim, true),
    def("lab.speedup_x", "x", Higher, Sim, true),
    def("unrecovered_share", "ratio", Lower, Count, true),
    // Sim-time convergence is pinned exactly by the golden files at seed
    // 42 and by the property checks at any seed. It is not an end-to-end
    // metric with a bound because `ixp_churn` cannot hold one: a churn
    // burst takes no link down, and whether one flow sees a single
    // ~8.6 ms gap flips with the seed (README, "ixp_churn").
    def("conv_max_ms", "ms", Lower, Sim, true),
    def("conv_median_ms", "ms", Lower, Sim, true),
];

/// The contract's rule for names: starts with a letter or digit, then at
/// most 64 letters, digits, `_`, `.` and `-` in all.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured metric.
#[derive(Debug)]
pub struct Metric {
    pub def: &'static Def,
    pub value: f64,
    /// Quartiles and count of the passes' totals, for a time measured by
    /// repeated passes.
    pub spread: Option<Summary>,
    pub applicable: bool,
}

/// The metrics of one run, checked against one of the tables.
pub struct Report {
    table: &'static [Def],
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new(table: &'static [Def]) -> Report {
        Report {
            table,
            metrics: Vec::new(),
        }
    }

    fn push(&mut self, name: &str, value: f64, spread: Option<Summary>, applicable: bool) {
        let def = self
            .table
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the table"));
        self.metrics.push(Metric {
            def,
            value,
            spread,
            applicable,
        });
    }

    pub fn value(&mut self, name: &str, value: f64) {
        self.push(name, value, None, true);
    }

    /// A time measured by repeated passes over the workload's trials:
    /// the value is [`floor`] (each trial's fastest pass, summed), shown
    /// beside the quartiles and count of the passes' totals.
    pub fn floor(&mut self, name: &str, passes: &[Vec<f64>]) {
        self.push(name, floor(passes), Some(totals(passes)), true);
    }

    /// A metric that applies to some workloads only: `None` prints as
    /// `n/a` and is carried as 0 in the result line.
    pub fn optional(&mut self, name: &str, value: Option<f64>) {
        self.push(name, value.unwrap_or(0.0), None, value.is_some());
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.value)
    }

    /// Every metric of the table exactly once, in table order.
    pub fn complete(mut self) -> Result<Report, String> {
        for d in self.table {
            let n = self.metrics.iter().filter(|m| m.def.name == d.name).count();
            if n != 1 {
                return Err(format!("metric {} reported {n} times", d.name));
            }
        }
        let table = self.table;
        self.metrics.sort_by_key(|m| {
            table
                .iter()
                .position(|d| std::ptr::eq(d, m.def))
                .expect("pushed from this table")
        });
        Ok(self)
    }

    /// The human-readable table: one metric per line, by name, with its
    /// unit, clock, exactness and (for repeated timings) the passes' quartiles
    /// and count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let clock = match m.def.clock {
                Clock::Sim => "sim",
                Clock::Host => "host",
                Clock::Count => "count",
            };
            let exact = if m.def.exact { "=" } else { " " };
            let value = if m.applicable {
                format_value(m.value)
            } else {
                "n/a".to_string()
            };
            let better = match m.def.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let _ = write!(
                out,
                "{:<36} {exact} {value:>16} {:<6} {clock:<5} {better:<6}",
                m.def.name, m.def.unit
            );
            if let Some(s) = m.spread {
                let _ = write!(
                    out,
                    " passes: q1 {} median {} q3 {} n {}",
                    format_value(s.q1),
                    format_value(s.median),
                    format_value(s.q3),
                    s.n
                );
            }
            out.push('\n');
        }
        out
    }

    /// The `"metrics"` object of the result line: every digit measured.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.def.name, m.value, m.def.unit
            );
        }
        out.push('}');
        out
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                d.name
            );
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn name_rule() {
        for ok in ["wall_s", "sim.ns_per_event", "1st", "a-b", &"x".repeat(64)] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    /// `BENCHMARK.json` at the repo root names exactly these metrics,
    /// with these units and directions.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let json = include_str!("../../BENCHMARK.json");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let better = match d.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                d.name, d.unit
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        assert_eq!(json.matches("\"bound\"").count(), END_TO_END.len());
    }

    #[test]
    fn report_requires_every_metric_once() {
        let mut r = Report::new(END_TO_END);
        r.value("wall_s", 1.5);
        assert!(r.complete().is_err());
        let mut r = Report::new(END_TO_END);
        for d in END_TO_END.iter().rev() {
            r.value(d.name, 2.0);
        }
        let r = r.complete().unwrap();
        assert_eq!(r.metrics[0].def.name, "wall_s");
        assert!(r
            .to_json()
            .starts_with("{\"wall_s\": {\"value\": 2, \"unit\": \"s\"}, "));
        assert_eq!(r.render().lines().count(), END_TO_END.len());
    }
}
