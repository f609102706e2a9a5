//! Shared helpers for the figure binaries (table rendering, argument
//! parsing). The binaries themselves live in `src/bin/`: `fig5`,
//! `scenarios` and `trace`. The paper's quantitative claims are
//! assertions in the workspace's tests, not printouts here. Time is
//! not read here either: wall time is the perf ledger's (`benchmark/`,
//! `BENCHMARK.json`).

use sc_net::SimDuration;

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

    /// `--key value` parsed as `T`, `default` when the flag is absent.
    pub fn value<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.opt_value(name).unwrap_or(default)
    }

    /// `--key value` parsed as `T`, `None` when the flag is absent. A
    /// value that does not parse (`--prefixes 10k`) or is missing names
    /// the flag and exits 2 — running the default world instead would
    /// answer a question nobody asked.
    #[allow(
        clippy::disallowed_macros,
        reason = "the bins' usage error, printed before any world exists"
    )]
    pub fn opt_value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.try_value(name).unwrap_or_else(|bad| {
            eprintln!("{name} {bad}: not a valid value");
            std::process::exit(2)
        })
    }

    fn try_value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.raw_value(name) {
            Some(v) => v.parse().map(Some).map_err(|_| v),
            None if self.flag(name) => Err("(no value)".into()),
            None => Ok(None),
        }
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
    fn values_parse_or_are_refused() {
        let args = Args {
            raw: ["--prefixes", "300", "--flows", "10k", "--seed"]
                .map(String::from)
                .to_vec(),
        };
        assert_eq!(args.try_value::<u32>("--prefixes"), Ok(Some(300)));
        assert_eq!(args.try_value::<u32>("--flows"), Err("10k".into()));
        assert_eq!(args.try_value::<u32>("--seed"), Err("(no value)".into()));
        assert_eq!(args.try_value::<u32>("--bursts"), Ok(None));
        assert_eq!(args.value("--prefixes", 1_000u32), 300);
        assert_eq!(args.value("--bursts", 7u32), 7);
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
