//! Shared helpers for the benchmark binaries (table rendering, argument
//! parsing). The binaries themselves live in `src/bin/` — one per
//! table/figure of the paper — and the Criterion micro-benchmarks in
//! `benches/`.

pub mod churn;
pub mod fwd;
pub mod replay;
pub mod timing;

use sc_net::SimDuration;
use sc_sim::SchedulerKind;

/// Render a duration the way the paper's Fig. 5 labels do: seconds with
/// one decimal above 1 s, milliseconds below.
pub fn fig5_label(d: SimDuration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.0}ms", s * 1e3)
    }
}

/// A fixed-width text table writer for terminal output.
pub struct Table {
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Table {
        let header: Vec<String> = header.iter().map(|s| s.to_string()).collect();
        Table {
            widths: header.iter().map(|h| h.len()).collect(),
            rows: vec![header],
        }
    }

    pub fn row(&mut self, fields: Vec<String>) {
        assert_eq!(fields.len(), self.widths.len(), "ragged table row");
        for (w, f) in self.widths.iter_mut().zip(&fields) {
            *w = (*w).max(f.len());
        }
        self.rows.push(fields);
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, row) in self.rows.iter().enumerate() {
            let cells: Vec<String> = row
                .iter()
                .zip(&self.widths)
                .map(|(f, w)| format!("{f:>w$}"))
                .collect();
            out.push_str(&cells.join("  "));
            out.push('\n');
            if i == 0 {
                let total: usize = self.widths.iter().sum::<usize>() + 2 * (self.widths.len() - 1);
                out.push_str(&"-".repeat(total));
                out.push('\n');
            }
        }
        out
    }
}

/// The `events_per_sec` of the `after` entry in a merged
/// `BENCH_PR*.json` trajectory file (or the only entry of a flat run
/// file). Shared by every bench binary's `--check` gate.
pub fn committed_events_per_sec(json: &str) -> Option<u64> {
    let tail = match json.find("\"after\":") {
        Some(at) => &json[at..],
        None => json,
    };
    let needle = "\"events_per_sec\":";
    let at = tail.find(needle)? + needle.len();
    let digits: String = tail[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// The `--check FILE [--tolerance PCT]` regression gate shared by the
/// bench binaries: compare a measured events/s against the committed
/// trajectory point in `path` and exit 1 on a regression beyond the
/// tolerance (percent). Tolerance-gated, not exact-match, so
/// run-to-run jitter does not flake the build.
pub fn check_perf_gate(path: &str, events_per_sec: u64, tolerance_pct: u64) {
    let committed = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let reference = committed_events_per_sec(&committed).expect("no events_per_sec in check file");
    let floor = reference * (100 - tolerance_pct.min(99)) / 100;
    if events_per_sec < floor {
        eprintln!(
            "PERF REGRESSION: {events_per_sec} events/s < {floor} \
             ({tolerance_pct}% below committed {reference} in {path})"
        );
        std::process::exit(1);
    }
    eprintln!(
        "perf check ok: {events_per_sec} events/s >= {floor} \
         (committed {reference} in {path}, tolerance {tolerance_pct}%)"
    );
}

/// The name a scheduler goes by on the command line and in JSON rows.
pub fn scheduler_name(kind: SchedulerKind) -> &'static str {
    match kind {
        SchedulerKind::TimerWheel => "wheel",
        SchedulerKind::ReferenceHeap => "heap",
    }
}

/// Tiny argument helper: `--key value` and `--flag`.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn parse() -> Args {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    pub fn value<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.raw_value(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// The kernel event scheduler picked by `--scheduler wheel|heap`
    /// (`default` when the flag is absent). Any other value prints the
    /// accepted ones and exits 2.
    pub fn scheduler(&self, default: SchedulerKind) -> SchedulerKind {
        let Some(name) = self.raw_value("--scheduler") else {
            return default;
        };
        [SchedulerKind::TimerWheel, SchedulerKind::ReferenceHeap]
            .into_iter()
            .find(|&kind| scheduler_name(kind) == name)
            .unwrap_or_else(|| {
                eprintln!("--scheduler {name}: expected wheel|heap");
                std::process::exit(2)
            })
    }

    /// The raw value following `--key`, if present.
    pub fn raw_value(&self, name: &str) -> Option<String> {
        self.raw
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.raw.get(i + 1))
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(fig5_label(SimDuration::from_millis(150)), "150ms");
        assert_eq!(fig5_label(SimDuration::from_millis(140_900)), "140.9s");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(vec!["12345".into(), "x".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("bbbb"));
        assert!(lines[2].ends_with("   x"));
    }
}
