//! Spans the harness records around its calls into the layers: name,
//! start, end and parent, kept in memory and written out at exit.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A single-threaded span recorder. Spans nest by call structure: a span
/// opened while another is open is its child.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; returns `f`'s result and the
    /// span's duration in seconds.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Each span's duration minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// One JSON object: the header fields, then every span with its
    /// parent id and self time.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_ns();
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, own[id]
            );
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut spans = Spans::new();
        spans.scope("root", |s| {
            s.scope("a", |s| {
                s.scope("a1", |_| std::hint::black_box(1 + 1));
            });
            s.scope("b", |_| ());
        });
        assert_eq!(
            spans.spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
            vec![None, Some(0), Some(1), Some(0)]
        );
        let root = spans.spans[0].end_ns - spans.spans[0].start_ns;
        assert_eq!(spans.self_ns().iter().sum::<u64>(), root);
        let json = spans.to_json("w", 1);
        assert_eq!(json.matches("\"name\"").count(), 4);
        assert!(json.contains("\"id\":2,\"parent\":1,\"name\":\"a1\""));
    }
}
