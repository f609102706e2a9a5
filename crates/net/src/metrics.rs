//! Deterministic counters — the metrics half of the sc-trace
//! observability subsystem.
//!
//! Everything here is a pure function of what was recorded: names are
//! `&'static str` (plus owned counter names for per-instance totals
//! folded in after a run), storage is `BTreeMap` (iteration order is
//! name order, never hasher order), and merging two registries is plain
//! addition — so partial registries (a trial's node-local totals, the
//! kernel's own) fold into one total whatever order they arrive in. A
//! disabled registry reduces every operation to one branch, keeping
//! instrumented hot paths free when observability is off.

use crate::json::escape_json;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A registry of named counters.
///
/// Disabled by default: every record call is one branch until
/// [`Registry::enable`] — instrumentation stays in place at zero cost
/// on uninstrumented runs (the perf gates prove the bound).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    enabled: bool,
    counters: BTreeMap<Cow<'static, str>, u64>,
}

impl Registry {
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// An enabled registry (the scenario runner folds a trial's node
    /// and kernel totals into one before merging it into the world's).
    pub fn enabled() -> Registry {
        Registry {
            enabled: true,
            ..Registry::default()
        }
    }

    #[inline]
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    #[inline]
    pub fn add(&mut self, name: &'static str, delta: u64) {
        if !self.enabled {
            return;
        }
        *self.counters.entry(Cow::Borrowed(name)).or_insert(0) += delta;
    }

    /// [`Registry::add`] under a name built at run time (per-node
    /// totals). Allocates, so for end-of-run folds, not hot paths.
    pub fn add_named(&mut self, name: String, delta: u64) {
        if self.enabled {
            *self.counters.entry(Cow::Owned(name)).or_insert(0) += delta;
        }
    }

    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.as_ref(), v))
    }

    /// Additive merge: counters add. The total is the same whatever
    /// order partial registries fold in — the determinism contract for
    /// folded metrics dumps.
    pub fn merge(&mut self, other: &Registry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Byte-reproducible JSON dump: names sorted, integers only.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", escape_json(k));
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let mut r = Registry::default();
        r.inc("x");
        r.add_named("y".to_string(), 2);
        assert_eq!(r.counter("x"), 0);
        assert_eq!(r.counters().count(), 0);
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |vals: &[u64]| {
            let mut r = Registry::enabled();
            for &v in vals {
                r.inc("events");
                r.add("depth", v);
            }
            r
        };
        let (a, b, c) = (mk(&[1, 5, 900]), mk(&[2]), mk(&[70_000, 3]));
        let mut ab = a.clone();
        ab.merge(&b);
        ab.merge(&c);
        let mut cb = c.clone();
        cb.merge(&b);
        cb.merge(&a);
        assert_eq!(ab, cb);
        assert_eq!(ab.counter("events"), 6);
        assert_eq!(ab.counter("depth"), 70_911);
        assert_eq!(ab.to_json(), cb.to_json());
    }

    /// Per-node counter names are built from node names at run time;
    /// whatever they hold, the dump stays one well-formed JSON object.
    #[test]
    fn hostile_names_are_escaped_in_the_dump() {
        let mut r = Registry::enabled();
        r.add_named("node.\"r\\1\u{1}\".timers".to_string(), 2);
        r.add_named("h\"\n".to_string(), 3);
        assert_eq!(
            r.to_json(),
            "{\"counters\":{\"h\\\"\\n\":3,\"node.\\\"r\\\\1\\u0001\\\".timers\":2}}\n"
        );
    }
}
