//! Deterministic counters and log-linear histograms — the metrics half
//! of the sc-trace observability subsystem.
//!
//! Everything here is a pure function of what was recorded: names are
//! `&'static str` (plus owned counter names for per-instance totals
//! folded in after a run), storage is `BTreeMap` (iteration order is
//! name order, never hasher order), and merging two registries is plain
//! addition — so partial registries (a trial's node-local totals, the
//! kernel's own) fold into one total whatever order they arrive in. A
//! disabled registry reduces every operation to one branch, keeping
//! instrumented hot paths free when observability is off.
//!
//! Histogram buckets are log-linear (HDR-style): exact below
//! [`LINEAR_MAX`], then [`SUB_BUCKETS`] linear sub-buckets per power of
//! two. Relative quantile error is bounded by `1/SUB_BUCKETS` across
//! the whole `u64` range, with a fixed 976-slot footprint.

use crate::json::escape_json;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Values below this are counted exactly (one bucket per value).
pub const LINEAR_MAX: u64 = 16;
/// Linear sub-buckets per power of two above [`LINEAR_MAX`].
pub const SUB_BUCKETS: u64 = 16;
/// Total bucket count: 16 exact + 60 octaves × 16 sub-buckets.
pub const N_BUCKETS: usize = (LINEAR_MAX + (63 - 3) * SUB_BUCKETS) as usize;

/// The bucket index a value lands in.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    // top >= 4 because v >= 16; each octave contributes SUB_BUCKETS
    // buckets indexed by the 4 bits below the leading one.
    let top = 63 - v.leading_zeros() as u64;
    (LINEAR_MAX + (top - 4) * SUB_BUCKETS + ((v >> (top - 4)) & (SUB_BUCKETS - 1))) as usize
}

/// The smallest value mapping to bucket `i` (inverse of [`bucket_of`];
/// reports quote this as the bucket's representative).
pub fn bucket_lo(i: usize) -> u64 {
    let i = i as u64;
    if i < LINEAR_MAX {
        return i;
    }
    let octave = (i - LINEAR_MAX) / SUB_BUCKETS;
    let sub = (i - LINEAR_MAX) % SUB_BUCKETS;
    (1 << (octave + 4)) + (sub << octave)
}

/// A log-linear histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    pub fn observe(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The lower bound of the bucket holding quantile `q` (in permille,
    /// e.g. 500 = median, 990 = p99). Zero on an empty histogram.
    pub fn quantile_permille(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the q-th permille sample, 1-based, clamped into range.
        let rank = ((self.count * q).div_ceil(1000)).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lo(i);
            }
        }
        self.max
    }

    /// Additive merge (bucket-wise): the result is independent of which
    /// registry observed which sample.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// `(bucket_lo, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lo(i), c))
    }
}

/// A registry of named counters and histograms.
///
/// Disabled by default: every record call is one branch until
/// [`Registry::enable`] — instrumentation stays in place at zero cost
/// on uninstrumented runs (the perf gates prove the bound).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    enabled: bool,
    counters: BTreeMap<Cow<'static, str>, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
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

    #[inline]
    pub fn observe(&mut self, name: &'static str, v: u64) {
        if !self.enabled {
            return;
        }
        self.histograms.entry(name).or_default().observe(v);
    }

    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.as_ref(), v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// Additive merge: counters add, histograms add bucket-wise. The
    /// total is the same whatever order partial registries fold in —
    /// the determinism contract for folded metrics dumps.
    pub fn merge(&mut self, other: &Registry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (&k, h) in &other.histograms {
            self.histograms.entry(k).or_default().merge(h);
        }
    }

    /// Byte-reproducible JSON dump: names sorted, integers only.
    /// Histograms quote count/sum/min/max plus p50/p90/p99 bucket
    /// floors and the non-empty buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", escape_json(k));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                escape_json(k),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.quantile_permille(500),
                h.quantile_permille(900),
                h.quantile_permille(990),
            );
            for (j, (lo, c)) in h.nonzero_buckets().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{lo},{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}\n");
        out
    }

    /// Human-readable dump for the `sc-bench trace` CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k:<48} {v}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{k:<48} n={} sum={} min={} p50={} p99={} max={}",
                h.count(),
                h.sum(),
                h.min(),
                h.quantile_permille(500),
                h.quantile_permille(990),
                h.max(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_then_log_linear() {
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_lo(v as usize), v);
        }
        // bucket_lo is the smallest member of its bucket, and buckets
        // partition the range in order.
        for i in 0..N_BUCKETS {
            let lo = bucket_lo(i);
            assert_eq!(bucket_of(lo), i, "lo of bucket {i}");
            if i > 0 {
                assert!(bucket_lo(i - 1) < lo);
            }
        }
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn relative_error_bounded() {
        for v in [17u64, 100, 999, 123_456, u64::MAX / 3] {
            let lo = bucket_lo(bucket_of(v));
            assert!(lo <= v);
            // Bucket width is lo/SUB_BUCKETS at most (one sub-bucket).
            assert!(v - lo <= lo / 8, "{v} vs {lo}");
        }
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut r = Registry::default();
        r.inc("x");
        r.observe("h", 3);
        assert_eq!(r.counter("x"), 0);
        assert!(r.histogram("h").is_none());
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |vals: &[u64]| {
            let mut r = Registry::enabled();
            for &v in vals {
                r.inc("events");
                r.observe("depth", v);
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
        assert_eq!(ab.to_json(), cb.to_json());
    }

    /// Per-node counter names are built from node names at run time;
    /// whatever they hold, the dump stays one well-formed JSON object.
    #[test]
    fn hostile_names_are_escaped_in_the_dump() {
        let mut r = Registry::enabled();
        r.add_named("node.\"r\\1\u{1}\".timers".to_string(), 2);
        r.observe("h\"\n", 3);
        assert_eq!(
            r.to_json(),
            "{\"counters\":{\"node.\\\"r\\\\1\\u0001\\\".timers\":2},\
             \"histograms\":{\"h\\\"\\n\":{\"count\":1,\"sum\":3,\"min\":3,\"max\":3,\
             \"p50\":3,\"p90\":3,\"p99\":3,\"buckets\":[[3,1]]}}}\n"
        );
    }

    #[test]
    fn quantiles_from_buckets() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        let p50 = h.quantile_permille(500);
        assert!((44..=50).contains(&p50), "{p50}");
        assert!(h.quantile_permille(1000) >= 96);
    }
}
