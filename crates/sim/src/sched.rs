//! Event schedulers for the kernel: the hierarchical timer wheel the
//! [`crate::World`] runs on, and the binary-heap reference it is
//! differentially tested against.
//!
//! The kernel's determinism contract hangs on one property: events are
//! delivered in exact `(time, seq)` order, where `seq` is the world's
//! **origin key** — `(origin stream << 44) | per-stream counter`, with
//! stream 0 the world/control stream and stream `n + 1` node `n` (see
//! `Kernel::key_for_node`). The key is a pure function of *which state
//! machine emitted the event and how many events it emitted before*,
//! never of how emissions interleave globally — so both schedulers
//! here reproduce the identical total order bit-for-bit. The
//! suite-level regression tests prove it by comparing stable reports
//! byte-for-byte across schedulers.
//!
//! ## Wheel layout
//!
//! The [`TimerWheel`] is a single near wheel plus an overflow heap:
//!
//! * **Near wheel** — `SLOTS` (256) circular buckets of `1 <<
//!   SLOT_BITS` ns (2.048 µs) each, covering a ~524 µs window from the
//!   current base. Hot work (frame flights, link serialization, FIB
//!   walk ticks, sub-millisecond BFD) lands here in O(1): an occupancy
//!   bitmap finds the next non-empty bucket in a handful of word
//!   scans, and the earliest bucket is drained through a sorted
//!   **active batch** — sorted once on activation, consumed by cursor —
//!   so exact `(time, seq)` order survives bucketing and co-timed
//!   event storms cost O(1) per event, not a per-pop bucket scan.
//! * **Overflow heap** — events beyond the window (millisecond-plus
//!   timers, keepalives, pre-scheduled scenario scripts) wait in a
//!   plain binary heap and are promoted into the wheel as the base
//!   advances. Each event is promoted at most once, and — unlike a
//!   global heap — a deep backlog of far-future events never taxes the
//!   near-term hot path.
//!
//! The base only moves forward, mirroring the kernel's monotonic
//! virtual clock. Events pushed at or behind the base (scheduled for
//! "now", or arriving after a deadline-bounded run parked the base
//! ahead of the clock) merge into the active batch with order
//! preserved.

use crate::world::EventKind;
use sc_net::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A queued event: total order by `(time, seq)` — `seq` is the globally
/// unique origin key, so simultaneous events keep a deterministic order
/// that does not depend on insertion interleaving.
pub(crate) struct Queued {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The event-queue abstraction the kernel runs on. Implementations must
/// pop in exact `(time, seq)` order.
pub(crate) trait Scheduler {
    /// Insert an event. `ev.time` is never earlier than the time of the
    /// most recently popped event (the kernel's clock is monotonic).
    fn push(&mut self, ev: Queued);

    /// Remove and return the minimum event if its time is `<= deadline`.
    fn pop_before(&mut self, deadline: SimTime) -> Option<Queued>;

    /// Remove and return the minimum event.
    fn pop(&mut self) -> Option<Queued> {
        self.pop_before(SimTime::MAX)
    }

    /// The exact time of the minimum event, without removing it. Exact,
    /// not a bucket bound: both schedulers answer the same instant.
    fn peek(&self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;
}

/// Which scheduler a [`crate::World`] runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// The hierarchical timer wheel (the default).
    #[default]
    TimerWheel,
    /// The original global `BinaryHeap` — kept as the reference
    /// implementation for differential testing.
    ReferenceHeap,
}

/// The kernel's scheduler storage: enum dispatch keeps `push`/`pop` on
/// the hot event loop statically resolvable (and inlinable), which a
/// `Box<dyn Scheduler>` measurably is not on the shallow-queue
/// data-plane workloads.
pub(crate) enum AnyScheduler {
    Wheel(TimerWheel),
    Heap(HeapScheduler),
}

pub(crate) fn make_scheduler(kind: SchedulerKind) -> AnyScheduler {
    match kind {
        SchedulerKind::TimerWheel => AnyScheduler::Wheel(TimerWheel::new()),
        SchedulerKind::ReferenceHeap => AnyScheduler::Heap(HeapScheduler::default()),
    }
}

impl Scheduler for AnyScheduler {
    #[inline]
    fn push(&mut self, ev: Queued) {
        match self {
            AnyScheduler::Wheel(w) => w.push(ev),
            AnyScheduler::Heap(h) => h.push(ev),
        }
    }

    #[inline]
    fn pop_before(&mut self, deadline: SimTime) -> Option<Queued> {
        match self {
            AnyScheduler::Wheel(w) => w.pop_before(deadline),
            AnyScheduler::Heap(h) => h.pop_before(deadline),
        }
    }

    fn peek(&self) -> Option<SimTime> {
        match self {
            AnyScheduler::Wheel(w) => w.peek(),
            AnyScheduler::Heap(h) => h.peek(),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyScheduler::Wheel(w) => w.len(),
            AnyScheduler::Heap(h) => h.len(),
        }
    }
}

/// The reference scheduler: one global binary heap.
#[derive(Default)]
pub(crate) struct HeapScheduler {
    heap: BinaryHeap<Reverse<Queued>>,
}

impl Scheduler for HeapScheduler {
    fn push(&mut self, ev: Queued) {
        self.heap.push(Reverse(ev));
    }

    fn pop_before(&mut self, deadline: SimTime) -> Option<Queued> {
        match self.heap.peek() {
            Some(Reverse(ev)) if ev.time <= deadline => self.heap.pop().map(|Reverse(ev)| ev),
            _ => None,
        }
    }

    fn peek(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(ev)| ev.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Near-wheel bucket width: 2^11 ns = 2.048 µs — fine enough that
/// packet-rate workloads spread across buckets, coarse enough that the
/// window below covers the hot control-plane timescales.
const SLOT_BITS: u32 = 11;
/// Near-wheel bucket count (must be a multiple of 64 for the bitmap);
/// window = `SLOTS << SLOT_BITS` ≈ 524 µs.
const SLOTS: usize = 256;
const BITMAP_WORDS: usize = SLOTS / 64;

/// Cursor dummy left in consumed batch positions (never observed).
const CONSUMED: Queued = Queued {
    time: SimTime::ZERO,
    seq: 0,
    kind: EventKind::Control(usize::MAX),
};

/// The hierarchical timer wheel (see the module docs for the layout).
///
/// Pops drain one bucket at a time through a sorted **active batch**:
/// when the earliest occupied bucket is reached, its (unordered) events
/// are sorted once and then consumed by cursor in O(1) per event. This
/// keeps co-timed storms — a hundred flow timers firing at the same
/// instant, a replayed feed's burst of deliveries — at one comparison
/// per event instead of a per-pop scan of the bucket.
pub(crate) struct TimerWheel {
    /// Per-bucket event lists, unordered until activation.
    slots: Vec<Vec<Queued>>,
    /// One bit per slot: does it hold any event?
    occupied: [u64; BITMAP_WORDS],
    /// Absolute bucket index (`time >> SLOT_BITS`) of the batch being
    /// drained; slots hold buckets in `(base, base + SLOTS)`.
    base_bucket: u64,
    /// The bucket being drained, sorted ascending by `(time, seq)`,
    /// consumed from `active_at`. Late pushes that sort at or before
    /// `base_bucket` merge in here (ordering stays exact).
    active: Vec<Queued>,
    active_at: usize,
    /// Events at or beyond `base_bucket + SLOTS`.
    overflow: BinaryHeap<Reverse<Queued>>,
    /// Events currently held in `slots` (excluding `active`/`overflow`).
    wheel_len: usize,
}

#[inline]
fn bucket_of(t: SimTime) -> u64 {
    t.as_nanos() >> SLOT_BITS
}

#[inline]
fn key(ev: &Queued) -> (SimTime, u64) {
    (ev.time, ev.seq)
}

impl TimerWheel {
    pub(crate) fn new() -> TimerWheel {
        TimerWheel {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; BITMAP_WORDS],
            base_bucket: 0,
            active: Vec::new(),
            active_at: 0,
            overflow: BinaryHeap::new(),
            wheel_len: 0,
        }
    }

    #[inline]
    fn set_bit(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
    }

    #[inline]
    fn clear_bit(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1u64 << (slot % 64));
    }

    /// First occupied slot at or after `from` in circular bucket order.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        // First (partial) word: mask off bits below `from`.
        let word_idx = from / 64;
        let first = self.occupied[word_idx] & (!0u64 << (from % 64));
        if first != 0 {
            return Some(word_idx * 64 + first.trailing_zeros() as usize);
        }
        // Remaining words, wrapping once around the ring.
        for i in 1..=BITMAP_WORDS {
            let w = (word_idx + i) % BITMAP_WORDS;
            let bits = if i == BITMAP_WORDS {
                // Back at the starting word: only bits below `from`.
                self.occupied[w] & !(!0u64 << (from % 64))
            } else {
                self.occupied[w]
            };
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Merge an event into the active batch, preserving ascending order
    /// past the cursor. Co-timed pushes (the overwhelmingly common
    /// case: same time, globally increasing `seq`) append in O(1).
    fn push_active(&mut self, ev: Queued) {
        match self.active.last() {
            Some(last) if key(last) > key(&ev) => {
                let pos = self.active[self.active_at..]
                    .binary_search_by_key(&key(&ev), key)
                    .unwrap_or_else(|p| p);
                self.active.insert(self.active_at + pos, ev);
            }
            _ => self.active.push(ev),
        }
    }

    #[inline]
    fn push_wheel(&mut self, bucket: u64, ev: Queued) {
        let slot = (bucket % SLOTS as u64) as usize;
        self.slots[slot].push(ev);
        self.set_bit(slot);
        self.wheel_len += 1;
    }

    /// Move every overflow event whose bucket entered the window into
    /// the wheel (or the active batch). Called when `base_bucket`
    /// advances; each event is promoted at most once.
    fn promote(&mut self) {
        let horizon = self.base_bucket + SLOTS as u64;
        while let Some(Reverse(ev)) = self.overflow.peek() {
            let bucket = bucket_of(ev.time);
            if bucket >= horizon {
                break;
            }
            let Some(Reverse(ev)) = self.overflow.pop() else {
                unreachable!()
            };
            if bucket <= self.base_bucket {
                self.push_active(ev);
            } else {
                self.push_wheel(bucket, ev);
            }
        }
    }

    /// Make the earliest pending bucket the active batch. Caller
    /// guarantees the current batch is exhausted and the wheel or
    /// overflow is non-empty.
    fn activate_next(&mut self) {
        self.active.clear();
        self.active_at = 0;
        if self.wheel_len == 0 {
            // Jump the base straight to the earliest overflow event.
            let Some(Reverse(ev)) = self.overflow.peek() else {
                unreachable!("activate_next on an empty scheduler")
            };
            self.base_bucket = bucket_of(ev.time);
            self.promote();
            self.active.sort_unstable_by_key(key);
            return;
        }
        let from = ((self.base_bucket + 1) % SLOTS as u64) as usize;
        let slot = self
            .next_occupied(from)
            .expect("wheel_len > 0 but no occupied slot");
        let delta = (slot + SLOTS - from) % SLOTS;
        self.base_bucket += delta as u64 + 1;
        self.clear_bit(slot);
        // Swap buffers so the drained slot inherits the old batch's
        // capacity — no allocation in steady state.
        std::mem::swap(&mut self.active, &mut self.slots[slot]);
        self.wheel_len -= self.active.len();
        self.active.sort_unstable_by_key(key);
        // The window moved: promotions may land in the new batch.
        self.promote();
    }
}

impl Scheduler for TimerWheel {
    #[inline]
    fn push(&mut self, ev: Queued) {
        let bucket = bucket_of(ev.time);
        if bucket <= self.base_bucket {
            // At-or-behind the batch being drained (an event scheduled
            // for "now", or a push after a deadline-bounded run parked
            // the base ahead of the clock): merge into the batch.
            self.push_active(ev);
        } else if bucket < self.base_bucket + SLOTS as u64 {
            self.push_wheel(bucket, ev);
        } else {
            self.overflow.push(Reverse(ev));
        }
    }

    #[inline]
    fn pop_before(&mut self, deadline: SimTime) -> Option<Queued> {
        loop {
            if let Some(ev) = self.active.get_mut(self.active_at) {
                if ev.time > deadline {
                    return None;
                }
                let ev = std::mem::replace(ev, CONSUMED);
                self.active_at += 1;
                return Some(ev);
            }
            if self.wheel_len == 0 && self.overflow.is_empty() {
                return None;
            }
            self.activate_next();
        }
    }

    /// The active batch is sorted and precedes every wheel bucket, and
    /// the wheel precedes the overflow heap; only the next occupied
    /// bucket is unsorted, so it is scanned.
    fn peek(&self) -> Option<SimTime> {
        if let Some(ev) = self.active.get(self.active_at) {
            return Some(ev.time);
        }
        if self.wheel_len > 0 {
            let from = ((self.base_bucket + 1) % SLOTS as u64) as usize;
            let slot = self
                .next_occupied(from)
                .expect("wheel_len > 0 but no occupied slot");
            return self.slots[slot].iter().map(|ev| ev.time).min();
        }
        self.overflow.peek().map(|Reverse(ev)| ev.time)
    }

    fn len(&self) -> usize {
        self.wheel_len + self.overflow.len() + (self.active.len() - self.active_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn ev(time_ns: u64, seq: u64) -> Queued {
        Queued {
            time: SimTime::from_nanos(time_ns),
            seq,
            kind: EventKind::Control(seq as usize),
        }
    }

    fn drain_keys(s: &mut dyn Scheduler) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = s.pop() {
            out.push((e.time.as_nanos(), e.seq));
        }
        out
    }

    #[test]
    fn wheel_orders_same_slot_and_same_time() {
        let mut w = TimerWheel::new();
        // Three events inside one 2.048 µs bucket (2,048..4,096 ns), two
        // at the same instant: order must be (time, seq).
        w.push(ev(4_050, 2));
        w.push(ev(4_000, 3));
        w.push(ev(4_000, 1));
        assert_eq!(drain_keys(&mut w), vec![(4_000, 1), (4_000, 3), (4_050, 2)]);
    }

    #[test]
    fn wheel_promotes_overflow_in_order() {
        let mut w = TimerWheel::new();
        // Far beyond the ~524 µs horizon: keepalive-scale timers.
        w.push(ev(30_000_000_000, 1));
        w.push(ev(90_000_000_000, 2));
        // Near events.
        w.push(ev(10_000, 3));
        assert_eq!(w.len(), 3);
        assert_eq!(
            drain_keys(&mut w),
            vec![(10_000, 3), (30_000_000_000, 1), (90_000_000_000, 2)]
        );
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn pop_before_respects_deadline_across_regions() {
        let mut w = TimerWheel::new();
        w.push(ev(1_000, 1));
        w.push(ev(50_000_000_000, 2)); // overflow
        assert!(w.pop_before(SimTime::from_nanos(999)).is_none());
        assert_eq!(w.pop_before(SimTime::from_nanos(1_000)).unwrap().seq, 1);
        // Next event is in overflow; deadline short of it returns None
        // without disturbing anything.
        assert!(w.pop_before(SimTime::from_secs(49)).is_none());
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_before(SimTime::MAX).unwrap().seq, 2);
    }

    /// The differential test: a random monotone workload (interleaved
    /// pushes and pops, timescales from nanoseconds to minutes) must pop
    /// in the identical order from the wheel and the reference heap, and
    /// both must peek the instant the next pop returns.
    #[test]
    fn wheel_matches_reference_heap_on_random_workloads() {
        for trial in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(trial);
            let mut wheel = TimerWheel::new();
            let mut heap = HeapScheduler::default();
            let mut now = 0u64;
            let mut seq = 0u64;
            let mut popped = 0usize;
            let mut pushed = 0usize;
            for _ in 0..2_000 {
                let peeked = wheel.peek();
                assert_eq!(peeked, heap.peek(), "trial {trial}");
                if pushed == popped || rng.gen_range(0u32..100) < 60 {
                    // Push at now + a span drawn across 6 decades.
                    let exp = rng.gen_range(0u32..7);
                    let span = rng.gen_range(0u64..10u64.pow(exp) * 100);
                    let e = ev(now + span, seq);
                    wheel.push(ev(now + span, seq));
                    heap.push(e);
                    seq += 1;
                    pushed += 1;
                } else {
                    let a = wheel.pop().unwrap();
                    let b = heap.pop().unwrap();
                    assert_eq!((a.time, a.seq), (b.time, b.seq), "trial {trial}");
                    assert_eq!(peeked, Some(a.time), "trial {trial}");
                    now = a.time.as_nanos();
                    popped += 1;
                }
                assert_eq!(wheel.len(), heap.len());
            }
            loop {
                let peeked = wheel.peek();
                assert_eq!(peeked, heap.peek(), "drain, trial {trial}");
                match (wheel.pop(), heap.pop()) {
                    (Some(a), Some(b)) => {
                        assert_eq!((a.time, a.seq), (b.time, b.seq), "drain, trial {trial}");
                        assert_eq!(peeked, Some(a.time), "drain, trial {trial}");
                    }
                    (None, None) => {
                        assert_eq!(peeked, None, "drain, trial {trial}");
                        break;
                    }
                    _ => panic!("schedulers disagree on emptiness"),
                }
            }
        }
    }

    /// Wall-clock micro-comparison (ignored by default; run with
    /// `cargo test --release -p sc-sim -- --ignored --nocapture`).
    /// Replays a dataplane-like pattern: a rolling window of ~120
    /// pending events, pushes ~70 µs ahead of pops.
    #[test]
    #[ignore]
    fn wheel_vs_heap_microbench() {
        const N: u64 = 5_000_000;
        // (window, spread): dataplane-like shallow/near, and deep/far
        // (a scripted-scenario backlog). The third pattern mimics the
        // forwarding world exactly: bimodal +10.5 µs frame flights and
        // +71.4 µs per-flow timer re-arms.
        for (window, spread) in [(120u64, 70_000u64), (4_000, 10_000_000), (115, 0)] {
            let run = |label: &str, s: &mut dyn Scheduler| {
                let mut rng = SmallRng::seed_from_u64(9);
                for seq in 0..window {
                    let d = if spread == 0 {
                        if seq % 3 == 0 {
                            71_430
                        } else {
                            10_500
                        }
                    } else {
                        rng.gen_range(0..spread)
                    };
                    s.push(ev(d, seq));
                }
                let t0 = std::time::Instant::now();
                for seq in window..N {
                    let e = s.pop().unwrap();
                    let now = e.time.as_nanos();
                    let d = if spread == 0 {
                        if seq % 3 == 0 {
                            71_430
                        } else {
                            10_500
                        }
                    } else {
                        rng.gen_range(100..spread)
                    };
                    s.push(ev(now + d, seq));
                }
                let dt = t0.elapsed();
                println!(
                    "{label} (window {window}, spread {spread}ns): {:.1} ns/op",
                    dt.as_nanos() as f64 / N as f64,
                );
                while s.pop().is_some() {}
            };
            run("heap ", &mut HeapScheduler::default());
            run("wheel", &mut TimerWheel::new());
        }
    }

    #[test]
    fn wheel_handles_bucket_wraparound() {
        let mut w = TimerWheel::new();
        // Walk the base far enough that slot indices wrap the ring
        // several times, pushing just-ahead events as we go.
        let mut now = 0u64;
        let step = 10_000u64; // ~4.9 buckets
        for seq in 0..(3 * SLOTS) as u64 {
            now += step;
            w.push(ev(now, seq));
            let e = w.pop().unwrap();
            assert_eq!((e.time.as_nanos(), e.seq), (now, seq));
        }
        assert_eq!(w.len(), 0);
    }
}
