//! The kernel's event queue: a hierarchical timer wheel that pops in
//! exact `(time, seq)` order, and in debug builds checks that order on
//! every pop.
//!
//! The kernel's determinism contract hangs on one property: events are
//! delivered in exact `(time, seq)` order, where `seq` is the world's
//! **origin key** — `(origin stream << 44) | per-stream counter`, with
//! stream 0 the world/control stream and stream `n + 1` node `n` (see
//! `Kernel::key_for_node`). The key is a pure function of *which state
//! machine emitted the event and how many events it emitted before*,
//! never of how emissions interleave globally, so the order is a
//! property of the simulated system: any queue that pops the minimum
//! key reproduces it bit-for-bit. The wheel proves it is such a queue
//! (see "Order check" below); the unit tests here hold it against a
//! plain binary heap of keys.
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
//!
//! ## Order check
//!
//! Debug builds check heap order in O(1) per pop (release builds carry
//! nothing). The check keeps the largest key popped so far (`floor`),
//! the pending keys pushed below it (`low`: zero-delay pushes from a
//! lower origin stream than the event being handled) and the number of
//! pending events. A pop must return the minimum of `low` if `low` is
//! non-empty, and otherwise a key above `floor`, which becomes the new
//! floor. Under heap order every pending key outside `low` lies above
//! `floor`, so an event the wheel skips either pops later below `floor`
//! or is still queued below it when the wheel is dropped; both panic.

use crate::link::Endpoint;
use crate::node::{NodeId, PortId};
use crate::world::EventKind;
use sc_net::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem::ManuallyDrop;

/// A queued event: total order by `(time, seq)` — `seq` is the globally
/// unique origin key, so simultaneous events keep a deterministic order
/// that does not depend on insertion interleaving.
///
/// The event is stored flat, so that a push writes each field into its
/// bucket from a register. The kind is one tag and one word, and the
/// endpoint it happens at rides beside it as two `u32`s (`port` is 0
/// for timers, both are 0 for controls). A kind that carried its
/// endpoint would be an enum built in a stack temporary and copied into
/// the bucket with 16-byte loads straddling the temporary's narrower
/// stores: a store-forwarding stall on every push. The kind sits in a
/// `ManuallyDrop` for the same reason. An event without drop glue needs
/// no unwinding path that holds it in memory while its bucket grows.
/// Every kind leaves the wheel through [`Queued::into_event`], on pop
/// or when the wheel is dropped.
pub(crate) struct Queued {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    node: u32,
    port: u32,
    kind: ManuallyDrop<EventKind>,
}

impl Queued {
    #[inline]
    fn new(time: SimTime, seq: u64, at: Endpoint, kind: EventKind) -> Queued {
        Queued {
            time,
            seq,
            // The kernel keeps node and port indices below 2^32.
            node: at.node.0 as u32,
            port: at.port.0 as u32,
            kind: ManuallyDrop::new(kind),
        }
    }

    /// The endpoint the event happens at, and its kind.
    #[inline]
    pub(crate) fn into_event(self) -> (Endpoint, EventKind) {
        let at = Endpoint {
            node: NodeId(self.node as usize),
            port: PortId(self.port as usize),
        };
        (at, ManuallyDrop::into_inner(self.kind))
    }
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
        key(self).cmp(&key(other))
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
    node: 0,
    port: 0,
    kind: ManuallyDrop::new(EventKind::Control(usize::MAX)),
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
    #[cfg(debug_assertions)]
    order: OrderCheck,
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
            #[cfg(debug_assertions)]
            order: OrderCheck::default(),
        }
    }

    /// Insert an event of `kind` at `at`. `time` is never earlier than
    /// the time of the most recently popped event (the kernel's clock is
    /// monotonic). Each branch builds its own [`Queued`]: one shared by
    /// all three would live in memory for the out-of-line ones, and the
    /// wheel's copy would be a wide reload of it.
    #[inline]
    pub(crate) fn push(&mut self, time: SimTime, seq: u64, at: Endpoint, kind: EventKind) {
        #[cfg(debug_assertions)]
        self.order.pushed((time, seq));
        let ev = move || Queued::new(time, seq, at, kind);
        let bucket = bucket_of(time);
        if bucket <= self.base_bucket {
            // At-or-behind the batch being drained (an event scheduled
            // for "now", or a push after a deadline-bounded run parked
            // the base ahead of the clock): merge into the batch.
            self.push_active(ev());
        } else if bucket < self.base_bucket + SLOTS as u64 {
            self.push_wheel(bucket, ev());
        } else {
            self.overflow.push(Reverse(ev()));
        }
    }

    /// Remove and return the minimum event if its time is `<= deadline`.
    #[inline]
    pub(crate) fn pop_before(&mut self, deadline: SimTime) -> Option<Queued> {
        loop {
            if let Some(ev) = self.active.get_mut(self.active_at) {
                if ev.time > deadline {
                    return None;
                }
                let ev = std::mem::replace(ev, CONSUMED);
                self.active_at += 1;
                #[cfg(debug_assertions)]
                {
                    self.order.popped(key(&ev));
                    assert_eq!(self.len(), self.order.pending, "wheel lost count");
                }
                return Some(ev);
            }
            if self.wheel_len == 0 && self.overflow.is_empty() {
                return None;
            }
            self.activate_next();
        }
    }

    /// Remove and return the minimum event.
    pub(crate) fn pop(&mut self) -> Option<Queued> {
        self.pop_before(SimTime::MAX)
    }

    /// The exact time of the minimum event, without removing it (not a
    /// bucket bound). The active batch is sorted and precedes every
    /// wheel bucket, and the wheel precedes the overflow heap; only the
    /// next occupied bucket is unsorted, so it is scanned.
    pub(crate) fn peek(&self) -> Option<SimTime> {
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

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.wheel_len + self.overflow.len() + (self.active.len() - self.active_at)
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

/// The debug-build proof that pops follow heap order (see the module
/// docs).
#[cfg(debug_assertions)]
#[derive(Default)]
struct OrderCheck {
    /// The largest key popped so far.
    floor: Option<(SimTime, u64)>,
    /// Pending keys that were pushed below `floor`, sorted descending
    /// (the minimum pops off the end; the buffer is reused, so the
    /// check allocates nothing in steady state).
    low: Vec<(SimTime, u64)>,
    /// Pushes minus pops.
    pending: usize,
}

#[cfg(debug_assertions)]
impl OrderCheck {
    fn pushed(&mut self, k: (SimTime, u64)) {
        self.pending += 1;
        if Some(k) < self.floor {
            let at = self.low.partition_point(|&l| l > k);
            self.low.insert(at, k);
        }
    }

    fn popped(&mut self, k: (SimTime, u64)) {
        self.pending -= 1;
        match self.low.pop() {
            Some(min) => assert!(
                k == min,
                "out of (time, seq) order: {k:?} while {min:?} was pending"
            ),
            None => {
                assert!(
                    Some(k) > self.floor,
                    "out of (time, seq) order: {k:?} after {:?}",
                    self.floor
                );
                self.floor = Some(k);
            }
        }
    }
}

impl Drop for TimerWheel {
    /// Hand back every kind still queued, so that frames in flight are
    /// released. In debug builds each event must first be one a later pop
    /// could return in order: above `floor`, or among the keys pushed
    /// below it.
    fn drop(&mut self) {
        let slots = self.slots.iter_mut().flat_map(|s| s.drain(..));
        let active = self.active.drain(self.active_at..);
        let overflow = self.overflow.drain().map(|Reverse(ev)| ev);
        for ev in slots.chain(active).chain(overflow) {
            #[cfg(debug_assertions)]
            if !std::thread::panicking() {
                let k = key(&ev);
                assert!(
                    Some(k) > self.order.floor || self.order.low.contains(&k),
                    "skipped event: {k:?} still queued after {:?}",
                    self.order.floor
                );
            }
            drop(ev.into_event());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn push_at(w: &mut TimerWheel, time_ns: u64, seq: u64) {
        let at = Endpoint {
            node: NodeId(0),
            port: PortId(0),
        };
        w.push(
            SimTime::from_nanos(time_ns),
            seq,
            at,
            EventKind::Control(seq as usize),
        );
    }

    fn drain_keys(w: &mut TimerWheel) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push((e.time.as_nanos(), e.seq));
        }
        out
    }

    #[test]
    fn wheel_orders_same_slot_and_same_time() {
        let mut w = TimerWheel::new();
        // Three events inside one 2.048 µs bucket (2,048..4,096 ns), two
        // at the same instant: order must be (time, seq).
        push_at(&mut w, 4_050, 2);
        push_at(&mut w, 4_000, 3);
        push_at(&mut w, 4_000, 1);
        assert_eq!(drain_keys(&mut w), vec![(4_000, 1), (4_000, 3), (4_050, 2)]);
    }

    #[test]
    fn wheel_promotes_overflow_in_order() {
        let mut w = TimerWheel::new();
        // Far beyond the ~524 µs horizon: keepalive-scale timers.
        push_at(&mut w, 30_000_000_000, 1);
        push_at(&mut w, 90_000_000_000, 2);
        // Near events.
        push_at(&mut w, 10_000, 3);
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
        push_at(&mut w, 1_000, 1);
        push_at(&mut w, 50_000_000_000, 2); // overflow
        assert!(w.pop_before(SimTime::from_nanos(999)).is_none());
        assert_eq!(w.pop_before(SimTime::from_nanos(1_000)).unwrap().seq, 1);
        // Next event is in overflow; deadline short of it returns None
        // without disturbing anything.
        assert!(w.pop_before(SimTime::from_secs(49)).is_none());
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_before(SimTime::MAX).unwrap().seq, 2);
    }

    /// The reference: a binary heap of `(time ns, seq)` keys.
    #[derive(Default)]
    struct KeyHeap(BinaryHeap<Reverse<(u64, u64)>>);

    impl KeyHeap {
        fn pop_before(&mut self, deadline: u64) -> Option<(u64, u64)> {
            match self.0.peek() {
                Some(&Reverse((t, _))) if t <= deadline => self.0.pop().map(|Reverse(k)| k),
                _ => None,
            }
        }

        fn peek(&self) -> Option<SimTime> {
            self.0.peek().map(|&Reverse((t, _))| SimTime::from_nanos(t))
        }
    }

    /// The differential test: a random monotone workload must pop in the
    /// identical order from the wheel and a reference heap of keys, and
    /// both must agree on `peek` and `len` after every operation. Keys
    /// are origin keys from six streams, as the kernel draws them, and
    /// the operations are the kernel's:
    ///
    /// * pushes at the clock plus a span drawn across 6 decades
    ///   (nanoseconds to minutes);
    /// * co-timed bursts at the clock from random streams — after a pop
    ///   some sort below the key just popped (a node handling an event
    ///   from a higher stream answers at zero delay);
    /// * pops;
    /// * `pop_before(deadline)` runs that leave the clock at the
    ///   deadline (`run_until`), parking the base ahead of it when the
    ///   next bucket lies beyond, so later pushes land behind the base.
    #[test]
    fn wheel_matches_reference_heap_on_random_workloads() {
        const STREAMS: usize = 6;
        for trial in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(trial);
            let mut wheel = TimerWheel::new();
            let mut heap = KeyHeap::default();
            let mut now = 0u64;
            let mut ctr = [0u64; STREAMS];
            let mut push = |wheel: &mut TimerWheel, heap: &mut KeyHeap, rng: &mut SmallRng, t| {
                let stream = rng.gen_range(0..STREAMS);
                let seq = ((stream as u64) << 44) | ctr[stream];
                ctr[stream] += 1;
                push_at(wheel, t, seq);
                heap.0.push(Reverse((t, seq)));
                (t, seq)
            };
            let mut last = (0, 0);
            let (mut below, mut parked) = (0, 0);
            for _ in 0..2_000 {
                match rng.gen_range(0u32..100) {
                    0..=44 => {
                        let exp = rng.gen_range(0u32..7);
                        let span = rng.gen_range(0u64..10u64.pow(exp) * 100);
                        push(&mut wheel, &mut heap, &mut rng, now + span);
                    }
                    45..=59 => {
                        for _ in 0..rng.gen_range(1..8) {
                            below += usize::from(push(&mut wheel, &mut heap, &mut rng, now) < last);
                        }
                    }
                    60..=89 => {
                        let a = wheel.pop().map(|e| (e.time.as_nanos(), e.seq));
                        assert_eq!(a, heap.pop_before(u64::MAX), "trial {trial}");
                        last = a.unwrap_or(last);
                        now = last.0;
                    }
                    _ => {
                        let deadline = now + rng.gen_range(0..2_000_000u64);
                        loop {
                            let a = wheel.pop_before(SimTime::from_nanos(deadline));
                            let a = a.map(|e| (e.time.as_nanos(), e.seq));
                            assert_eq!(a, heap.pop_before(deadline), "trial {trial}");
                            let Some(a) = a else { break };
                            last = a;
                        }
                        parked += usize::from(
                            wheel.base_bucket > bucket_of(SimTime::from_nanos(deadline)),
                        );
                        now = deadline;
                    }
                }
                assert_eq!(wheel.peek(), heap.peek(), "trial {trial}");
                assert_eq!(wheel.len(), heap.0.len(), "trial {trial}");
            }
            assert!(below > 0, "trial {trial} never pushed below the last pop");
            assert!(
                parked > 0,
                "trial {trial} never parked the base ahead of the clock"
            );
            loop {
                let a = wheel.pop().map(|e| (e.time.as_nanos(), e.seq));
                assert_eq!(a, heap.pop_before(u64::MAX), "drain, trial {trial}");
                assert_eq!(wheel.peek(), heap.peek(), "drain, trial {trial}");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// The order check fires when the active batch is out of order.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of (time, seq) order")]
    fn order_check_catches_a_disordered_active_batch() {
        let mut w = TimerWheel::new();
        for seq in 0..3 {
            push_at(&mut w, 1_000, seq);
        }
        assert_eq!(w.pop().map(|e| e.seq), Some(0));
        w.active.swap(1, 2);
        while w.pop().is_some() {}
    }

    /// The wheel holds each kind in a `ManuallyDrop`, so dropping it must
    /// hand back what is still queued: a frame in the active batch, in a
    /// bucket and in the overflow heap is released, not leaked.
    #[test]
    fn dropping_the_wheel_releases_queued_frames() {
        let frame = sc_net::Frame::new(vec![0; 64]);
        let mut w = TimerWheel::new();
        let at = Endpoint {
            node: NodeId(0),
            port: PortId(0),
        };
        for (seq, time_ns) in [0, 10_000, 50_000_000_000].into_iter().enumerate() {
            let kind = EventKind::Deliver(frame.clone());
            w.push(SimTime::from_nanos(time_ns), seq as u64, at, kind);
        }
        assert_eq!((w.active.len(), w.wheel_len, w.overflow.len()), (1, 1, 1));
        assert_eq!(frame.ref_count(), 4);
        drop(w);
        assert_eq!(frame.ref_count(), 1);
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
            push_at(&mut w, now, seq);
            let e = w.pop().unwrap();
            assert_eq!((e.time.as_nanos(), e.seq), (now, seq));
        }
        assert_eq!(w.len(), 0);
    }
}
