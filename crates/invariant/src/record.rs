//! Violation classes, the scenario transit policy, and per-window
//! duration accounting.
//!
//! Durations are *first-seen → last-seen* in kernel time, per class,
//! per measurement window: the engine cannot see between samples, so a
//! violation observed at exactly one sample reports a zero duration and
//! the resolution of every figure is the sampling cadence.

use crate::walk::WalkReport;
use sc_net::{Ipv4Prefix, SimDuration, SimTime};
use sc_sim::NodeId;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// What went wrong for one (src, prefix) pair at one sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationClass {
    /// Probe dies at a live node: no route, no resolved next hop, or a
    /// dark egress.
    Blackhole = 0,
    /// The forwarding graph cycles (or explodes past the walk cap).
    Loop = 1,
    /// The probe delivers, but its path crosses a node the scenario
    /// policy forbids for that destination at that time.
    Transit = 2,
}

/// All classes, in column order.
pub const CLASSES: [ViolationClass; 3] = [
    ViolationClass::Blackhole,
    ViolationClass::Loop,
    ViolationClass::Transit,
];

/// Classify one walk: delivery beats everything except a transit ban;
/// an undelivered walk is a loop if any branch cycled, else a
/// blackhole.
pub fn classify(report: &WalkReport, transit_forbidden: bool) -> Option<ViolationClass> {
    if report.delivered {
        transit_forbidden.then_some(ViolationClass::Transit)
    } else if report.looped || report.truncated {
        Some(ViolationClass::Loop)
    } else {
        Some(ViolationClass::Blackhole)
    }
}

/// One forbidden-transit rule: between `from` and `until`, traffic for
/// any of `prefixes` must not cross `node`. The suite runner derives
/// these from the event script — a provider that withdrew a prefix has
/// disclaimed transit for it until it re-announces. The prefix list is
/// shared: a churn script's cycles ban the same prefixes in turn.
#[derive(Clone, Debug)]
pub struct TransitRule {
    pub node: NodeId,
    pub prefixes: Rc<[Ipv4Prefix]>,
    pub from: SimTime,
    pub until: SimTime,
}

/// The scenario's transit policy: a set of time-windowed bans.
#[derive(Clone, Debug, Default)]
pub struct TransitPolicy {
    pub rules: Vec<TransitRule>,
}

impl TransitPolicy {
    /// Does a walk visiting `visited` for destination `dst` at `now`
    /// cross any banned node?
    pub fn forbids(&self, visited: &[NodeId], dst: Ipv4Addr, now: SimTime) -> bool {
        self.rules.iter().any(|r| {
            now >= r.from
                && now < r.until
                && visited.contains(&r.node)
                && r.prefixes.iter().any(|p| p.contains(dst))
        })
    }
}

/// Violation accounting for one measurement window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowViolations {
    /// Samples taken inside the window.
    pub samples: u64,
    /// Samples at which ≥1 flow was in each class.
    pub hits: [u64; 3],
    /// First sample time each class was seen.
    pub first: [Option<SimTime>; 3],
    /// Last sample time each class was seen.
    pub last: [Option<SimTime>; 3],
}

impl WindowViolations {
    /// First-seen → last-seen span of `class` within the window; zero
    /// when the class was seen at most once (resolution = cadence).
    pub fn duration(&self, class: ViolationClass) -> SimDuration {
        match (self.first[class as usize], self.last[class as usize]) {
            (Some(a), Some(b)) => b - a,
            _ => SimDuration::ZERO,
        }
    }
}

/// Accumulates per-window violation observations as the pre-scheduled
/// samples fire.
#[derive(Clone, Debug, Default)]
pub struct InvariantRecorder {
    windows: Vec<WindowViolations>,
}

impl InvariantRecorder {
    /// Pre-size to the measurement plan's window count so windows that
    /// never see a sample still report (empty, all-zero).
    pub fn new(windows: usize) -> InvariantRecorder {
        InvariantRecorder {
            windows: vec![WindowViolations::default(); windows],
        }
    }

    /// Record one sample of window `window` at kernel time `now`:
    /// `flags[c]` says whether any flow was in class `c`.
    pub fn record(&mut self, window: usize, now: SimTime, flags: [bool; 3]) {
        if window >= self.windows.len() {
            self.windows.resize(window + 1, WindowViolations::default());
        }
        let w = &mut self.windows[window];
        w.samples += 1;
        for (c, &hit) in flags.iter().enumerate() {
            if hit {
                w.hits[c] += 1;
                w.first[c].get_or_insert(now);
                w.last[c] = Some(now);
            }
        }
    }

    /// Finalize into a report.
    pub fn report(self) -> InvariantReport {
        InvariantReport {
            windows: self.windows,
        }
    }
}

/// The finished per-trial invariant measurements: one entry per
/// measurement window, in window order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InvariantReport {
    pub windows: Vec<WindowViolations>,
}

impl InvariantReport {
    /// Pooled violation duration: the sum of per-window spans.
    pub fn total(&self, class: ViolationClass) -> SimDuration {
        self.windows
            .iter()
            .fold(SimDuration::ZERO, |acc, w| acc + w.duration(class))
    }

    /// Total samples across all windows.
    pub fn samples(&self) -> u64 {
        self.windows.iter().map(|w| w.samples).sum()
    }

    /// Total samples-in-violation across all windows.
    pub fn hits(&self, class: ViolationClass) -> u64 {
        self.windows.iter().map(|w| w.hits[class as usize]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn empty_window_reports_zero() {
        let rec = InvariantRecorder::new(2);
        let rep = rec.report();
        assert_eq!(rep.windows.len(), 2);
        for c in CLASSES {
            assert_eq!(rep.total(c), SimDuration::ZERO);
            assert_eq!(rep.hits(c), 0);
        }
        assert_eq!(rep.samples(), 0);
    }

    #[test]
    fn single_hit_has_zero_span_but_counts() {
        // A violation seen at exactly one sample: the first-seen →
        // last-seen span collapses to zero (the cadence bounds what the
        // engine can claim), but the hit is still visible.
        let mut rec = InvariantRecorder::new(1);
        rec.record(0, ms(10), [true, false, false]);
        rec.record(0, ms(20), [false, false, false]);
        let rep = rec.report();
        assert_eq!(rep.total(ViolationClass::Blackhole), SimDuration::ZERO);
        assert_eq!(rep.hits(ViolationClass::Blackhole), 1);
        assert_eq!(rep.samples(), 2);
    }

    #[test]
    fn span_is_first_to_last_seen() {
        let mut rec = InvariantRecorder::new(1);
        rec.record(0, ms(10), [false, false, false]);
        rec.record(0, ms(20), [true, false, false]);
        rec.record(0, ms(30), [true, false, true]);
        rec.record(0, ms(40), [true, false, false]);
        rec.record(0, ms(50), [false, false, false]);
        let rep = rec.report();
        assert_eq!(
            rep.total(ViolationClass::Blackhole),
            SimDuration::from_millis(20)
        );
        assert_eq!(rep.total(ViolationClass::Transit), SimDuration::ZERO);
        assert_eq!(rep.hits(ViolationClass::Transit), 1);
    }

    #[test]
    fn truncated_window_spans_to_its_last_sample() {
        // A violation still live when the window closes: the span runs
        // to the final sample — the window truncates the measurement
        // exactly like the gap harvester truncates an open gap.
        let mut rec = InvariantRecorder::new(2);
        rec.record(0, ms(10), [true, false, false]);
        rec.record(0, ms(90), [true, false, false]);
        // Next window starts its own accounting.
        rec.record(1, ms(100), [true, false, false]);
        rec.record(1, ms(110), [false, false, false]);
        let rep = rec.report();
        assert_eq!(
            rep.windows[0].duration(ViolationClass::Blackhole),
            SimDuration::from_millis(80)
        );
        assert_eq!(
            rep.windows[1].duration(ViolationClass::Blackhole),
            SimDuration::ZERO
        );
        assert_eq!(
            rep.total(ViolationClass::Blackhole),
            SimDuration::from_millis(80)
        );
    }

    #[test]
    fn out_of_range_window_extends() {
        let mut rec = InvariantRecorder::new(1);
        rec.record(3, ms(5), [false, true, false]);
        let rep = rec.report();
        assert_eq!(rep.windows.len(), 4);
        assert_eq!(rep.hits(ViolationClass::Loop), 1);
    }

    #[test]
    fn transit_policy_is_time_and_prefix_windowed() {
        let p: Ipv4Prefix = "20.0.0.0/16".parse().unwrap();
        let policy = TransitPolicy {
            rules: vec![TransitRule {
                node: NodeId(7),
                prefixes: Rc::new([p]),
                from: ms(100),
                until: ms(200),
            }],
        };
        let in_prefix: Ipv4Addr = "20.0.1.1".parse().unwrap();
        let outside: Ipv4Addr = "30.0.1.1".parse().unwrap();
        let path = [NodeId(1), NodeId(7)];
        assert!(policy.forbids(&path, in_prefix, ms(150)));
        assert!(!policy.forbids(&path, in_prefix, ms(50)), "before the ban");
        assert!(!policy.forbids(&path, in_prefix, ms(200)), "ban has lifted");
        assert!(!policy.forbids(&path, outside, ms(150)), "other prefixes");
        assert!(
            !policy.forbids(&[NodeId(1)], in_prefix, ms(150)),
            "path avoids the node"
        );
    }

    #[test]
    fn classification_precedence() {
        use crate::walk::WalkReport;
        let delivered = WalkReport {
            delivered: true,
            ..WalkReport::default()
        };
        assert_eq!(classify(&delivered, false), None);
        assert_eq!(classify(&delivered, true), Some(ViolationClass::Transit));
        let looped = WalkReport {
            looped: true,
            ..WalkReport::default()
        };
        assert_eq!(classify(&looped, false), Some(ViolationClass::Loop));
        let dead = WalkReport::default();
        assert_eq!(classify(&dead, false), Some(ViolationClass::Blackhole));
    }
}
