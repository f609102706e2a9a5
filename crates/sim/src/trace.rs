//! sc-trace: deterministic causal tracing (flight recorder).
//!
//! Tracing is opt-in and zero-cost-when-off: the record call is one
//! branch and nothing else on the disabled path (names are
//! `&'static str`, details are closures that never run). When enabled,
//! every record is stamped with sim-time plus a **causal key**:
//!
//! * `cause` — the origin key of the kernel event whose dispatch
//!   produced this record (the same `(time, origin)` total order the
//!   event queue pops in), and
//! * `sub` — the record's index within that one dispatch.
//!
//! `(time, cause, sub)` is globally unique and sorting by it
//! reconstructs the exact processing order. That is what makes trace
//! output part of the byte-identical determinism contract: the key is
//! built from origin keys, which no queue can influence, so any queue
//! that pops in key order exports the same bytes. Eviction in the
//! bounded ring is queue-independent for the same reason: it keeps the
//! newest `capacity` records of that one order.

use crate::node::NodeId;
use sc_net::{escape_json, SimTime};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// How a record renders on a timeline (Chrome `trace_event` phases).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TracePhase {
    /// A point event ("i" in Chrome).
    Instant,
    /// Opens a span; paired with [`TracePhase::End`] by `id` ("B").
    Begin,
    /// Closes a span ("E").
    End,
}

impl TracePhase {
    fn chrome(self) -> &'static str {
        match self {
            TracePhase::Instant => "i",
            TracePhase::Begin => "B",
            TracePhase::End => "E",
        }
    }
}

/// One structured trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub time: SimTime,
    /// Origin key of the kernel event whose dispatch produced this.
    pub cause: u64,
    /// Index of this record within its dispatch.
    pub sub: u32,
    pub node: NodeId,
    pub phase: TracePhase,
    /// Coarse category ("detect", "program", "bgp", "kernel", ...).
    pub cat: &'static str,
    /// Specific event name ("bfd.down", "flowmod.batch", ...).
    pub name: &'static str,
    /// Span/flow correlation id (barrier token, session index, ...).
    pub id: u64,
    /// Numeric payload (batch size, queue depth, counter value, ...).
    pub v: u64,
    /// Lazily rendered free-form detail; empty when not provided.
    pub detail: String,
}

impl TraceEvent {
    /// The global total-order key.
    #[inline]
    pub fn key(&self) -> (SimTime, u64, u32) {
        (self.time, self.cause, self.sub)
    }
}

/// A bounded flight-recorder ring of trace records.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    capacity: usize,
    records: VecDeque<TraceEvent>,
    /// Total records ever recorded (retained + evicted).
    recorded: u64,
    // Sub-index tracking: consecutive records from one dispatch share
    // (time, cause) and get increasing `sub`.
    last_time: SimTime,
    last_cause: u64,
    next_sub: u32,
}

impl Trace {
    /// A disabled trace (records are discarded).
    pub fn disabled() -> Trace {
        Trace {
            enabled: false,
            capacity: 0,
            records: VecDeque::new(),
            recorded: 0,
            last_time: SimTime::ZERO,
            last_cause: u64::MAX,
            next_sub: 0,
        }
    }

    /// An enabled trace keeping the most recent `capacity` records.
    pub fn bounded(capacity: usize) -> Trace {
        Trace {
            enabled: true,
            capacity,
            records: VecDeque::with_capacity(capacity.min(4096)),
            recorded: 0,
            last_time: SimTime::ZERO,
            last_cause: u64::MAX,
            next_sub: 0,
        }
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one event. `detail` only runs when tracing is enabled.
    #[allow(
        clippy::too_many_arguments,
        reason = "flat args keep the disabled path branch-only"
    )]
    pub fn emit(
        &mut self,
        time: SimTime,
        cause: u64,
        node: NodeId,
        phase: TracePhase,
        cat: &'static str,
        name: &'static str,
        id: u64,
        v: u64,
        detail: impl FnOnce() -> String,
    ) {
        if !self.enabled {
            return;
        }
        let sub = if time == self.last_time && cause == self.last_cause {
            self.next_sub
        } else {
            self.last_time = time;
            self.last_cause = cause;
            0
        };
        self.next_sub = sub + 1;
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.recorded += 1;
        self.records.push_back(TraceEvent {
            time,
            cause,
            sub,
            node,
            phase,
            cat,
            name,
            id,
            v,
            detail: detail(),
        });
    }

    /// The retained records, in processing order.
    pub fn records(&self) -> impl Iterator<Item = &TraceEvent> {
        self.records.iter()
    }

    /// Total records ever recorded (retained + evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Number of records evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.records.len() as u64
    }

    /// Byte-reproducible JSONL export: a meta line, then one object per
    /// record in processing order. Integers only; no floats, no maps.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"meta\":\"sc-trace\",\"recorded\":{},\"dropped\":{}}}",
            self.recorded,
            self.dropped()
        );
        for r in &self.records {
            let _ = writeln!(
                out,
                "{{\"t_ns\":{},\"cause\":{},\"sub\":{},\"node\":{},\"ph\":\"{}\",\
                 \"cat\":\"{}\",\"name\":\"{}\",\"id\":{},\"v\":{},\"detail\":\"{}\"}}",
                r.time.as_nanos(),
                r.cause,
                r.sub,
                r.node.0,
                r.phase.chrome(),
                r.cat,
                r.name,
                r.id,
                r.v,
                escape_json(&r.detail),
            );
        }
        out
    }

    /// Chrome `trace_event` JSON (load in Perfetto / chrome://tracing).
    /// `ts` is microseconds rendered as a fixed 3-decimal string from
    /// integer nanoseconds — byte-reproducible, no float formatting.
    pub fn to_chrome(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let ns = r.time.as_nanos();
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{}.{:03},\
                 \"pid\":0,\"tid\":{}",
                r.name,
                r.cat,
                r.phase.chrome(),
                ns / 1000,
                ns % 1000,
                r.node.0,
            );
            if r.phase == TracePhase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            let _ = write!(
                out,
                ",\"args\":{{\"cause\":{},\"sub\":{},\"id\":{},\"v\":{}",
                r.cause, r.sub, r.id, r.v
            );
            if !r.detail.is_empty() {
                let _ = write!(out, ",\"detail\":\"{}\"", escape_json(&r.detail));
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: &mut Trace, ms: u64, cause: u64, name: &'static str) {
        t.emit(
            SimTime::from_millis(ms),
            cause,
            NodeId(0),
            TracePhase::Instant,
            "c",
            name,
            0,
            0,
            String::new,
        );
    }

    #[test]
    fn disabled_trace_discards() {
        let mut t = Trace::disabled();
        let mut rendered = false;
        t.emit(
            SimTime::ZERO,
            0,
            NodeId(0),
            TracePhase::Instant,
            "x",
            "x",
            0,
            0,
            || {
                rendered = true;
                "msg".into()
            },
        );
        assert!(!rendered, "detail closure must not run when disabled");
        assert_eq!(t.records().count(), 0);
        assert_eq!(t.recorded(), 0);
    }

    #[test]
    fn bounded_trace_evicts_oldest() {
        let mut t = Trace::bounded(2);
        for i in 0..4u64 {
            ev(&mut t, i, i, "e");
        }
        let times: Vec<u64> = t.records().map(|r| r.time.as_millis()).collect();
        assert_eq!(times, vec![2, 3]);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.recorded(), 4);
    }

    #[test]
    fn sub_indices_count_within_a_dispatch() {
        let mut t = Trace::bounded(10);
        ev(&mut t, 1, 7, "a");
        ev(&mut t, 1, 7, "b");
        ev(&mut t, 1, 9, "c");
        ev(&mut t, 2, 9, "d");
        let subs: Vec<u32> = t.records().map(|r| r.sub).collect();
        assert_eq!(subs, vec![0, 1, 0, 0]);
    }

    #[test]
    fn exports_are_wellformed_and_escape_details() {
        let mut t = Trace::bounded(10);
        t.emit(
            SimTime::from_millis(1),
            5,
            NodeId(3),
            TracePhase::Begin,
            "program",
            "flowmod.batch",
            42,
            7,
            || "q=\"x\"\n".into(),
        );
        t.emit(
            SimTime::from_millis(2),
            6,
            NodeId(3),
            TracePhase::End,
            "program",
            "flowmod.batch",
            42,
            0,
            String::new,
        );
        let jsonl = t.to_jsonl();
        assert!(jsonl.starts_with("{\"meta\":\"sc-trace\",\"recorded\":2,\"dropped\":0}"));
        assert!(jsonl.contains("\\\"x\\\"\\n"));
        let chrome = t.to_chrome();
        assert!(chrome.contains("\"ph\":\"B\""));
        assert!(chrome.contains("\"ts\":1000.000"));
        assert!(chrome.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
    }
}
