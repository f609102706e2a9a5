//! The flat FIB and the entry-by-entry FIB walker.
//!
//! In the paper's stock router every FIB entry holds its own L2 next-hop
//! information (Fig. 1), so a peer failure forces the router to rewrite
//! *each* affected entry; the rewrite is serialized in hardware. The
//! walker models exactly that: a FIFO of pending operations drained at
//! the calibrated per-entry cost, with the data plane reading only the
//! already-updated state. What the traffic sink then measures per flow
//! is the paper's convergence distribution.
//!
//! The FIFO is the walker's one large allocation — churn offers ops some
//! thirty times faster than the modelled hardware writes them, so the
//! queue runs a million deep — and it stores a private packed op
//! ([`PackedOp`], 8 bytes: prefix bits, length, and a 2-byte index into
//! the walker's table of next hops) rather than the 16-byte [`FibOp`]
//! callers hand in and get back.

use crate::calibration::Calibration;
use sc_net::{FxHashMap, Ipv4Prefix, PrefixTrie, SimDuration, SimTime};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// One step of the splitmix64 generator (the walker's private jitter
/// stream — counted per walker, so the draw sequence is a pure function
/// of the router's seed and its own walk history, independent of every
/// other node and of the executor).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One installed FIB entry: where traffic for a prefix goes *right now*.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FibEntry {
    /// The IP next-hop (possibly a virtual next-hop in supercharged
    /// mode); resolved to L2 via ARP at forwarding time.
    pub next_hop: Ipv4Addr,
}

/// A pending FIB operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FibOp {
    /// Install or overwrite the entry for `prefix`.
    Set {
        prefix: Ipv4Prefix,
        next_hop: Ipv4Addr,
    },
    /// Remove the entry (no route left).
    Remove { prefix: Ipv4Prefix },
}

impl FibOp {
    pub fn prefix(&self) -> Ipv4Prefix {
        match self {
            FibOp::Set { prefix, .. } | FibOp::Remove { prefix } => *prefix,
        }
    }
}

/// The installed table (what the data plane consults).
pub type Fib = PrefixTrie<FibEntry>;

/// A [`FibOp`] as the walker's queue holds it: half the size, the next
/// hop replaced by its index in the walker's [`NextHops`].
#[derive(Clone, Copy, Debug)]
struct PackedOp {
    bits: u32,
    /// Index into [`NextHops`], or [`PackedOp::REMOVE`].
    nh: u16,
    len: u8,
}

const _: () = assert!(std::mem::size_of::<PackedOp>() == 8);

impl PackedOp {
    /// The `nh` of a [`FibOp::Remove`].
    const REMOVE: u16 = u16::MAX;

    fn prefix(self) -> Ipv4Prefix {
        Ipv4Prefix::new(Ipv4Addr::from(self.bits), self.len)
    }
}

/// The next hops queued ops name, interned.
#[derive(Debug, Default)]
struct NextHops {
    by_index: Vec<Ipv4Addr>,
    index_of: FxHashMap<Ipv4Addr, u16>,
}

impl NextHops {
    fn intern(&mut self, next_hop: Ipv4Addr) -> u16 {
        if let Some(&index) = self.index_of.get(&next_hop) {
            return index;
        }
        assert!(
            self.by_index.len() < PackedOp::REMOVE as usize,
            "FIB walker: more than {} distinct next hops",
            PackedOp::REMOVE
        );
        let index = self.by_index.len() as u16;
        self.by_index.push(next_hop);
        self.index_of.insert(next_hop, index);
        index
    }
}

/// The serialized hardware-update engine.
#[derive(Debug)]
pub struct FibWalker {
    cal: Calibration,
    queue: VecDeque<PackedOp>,
    next_hops: NextHops,
    /// When the hardware becomes free for the next entry.
    busy_until: SimTime,
    /// Stats.
    pub ops_applied: u64,
    pub bursts: u64,
    /// Completion time of the most recently applied op (for tests).
    pub last_apply_at: Option<SimTime>,
    /// Jitter stream state (see [`splitmix64`]).
    jitter_state: u64,
}

impl FibWalker {
    /// Ops of queue capacity kept however far the walk has drained
    /// (32 KiB): ordinary churn bursts never reallocate.
    const QUEUE_FLOOR: usize = 4096;

    /// `seed` roots the per-entry jitter stream; routers pass their
    /// router-id so each walker jitters independently but reproducibly.
    pub fn new(cal: Calibration, seed: u64) -> FibWalker {
        let mut jitter_state = seed ^ 0x6A09_E667_F3BC_C909;
        splitmix64(&mut jitter_state);
        FibWalker {
            cal,
            queue: VecDeque::new(),
            next_hops: NextHops::default(),
            busy_until: SimTime::ZERO,
            ops_applied: 0,
            bursts: 0,
            last_apply_at: None,
            jitter_state,
        }
    }

    /// Number of operations still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued (the FIB reflects the RIB).
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    /// Queue a burst of operations produced by one control-plane event.
    /// `session_loss` bursts pay the (large) peer-down processing delay
    /// before the walk starts; ordinary update churn pays the small
    /// per-update cost.
    ///
    /// Returns nothing: the caller arms its timer from
    /// [`FibWalker::next_apply_at`].
    pub fn enqueue_burst(
        &mut self,
        now: SimTime,
        ops: impl IntoIterator<Item = FibOp>,
        session_loss: bool,
    ) {
        let delay = if session_loss {
            self.cal.peer_down_processing
        } else {
            self.cal.update_processing
        };
        let start = self.busy_until.max(now) + delay;
        let was_empty = self.queue.is_empty();
        let queued = self.queue.len();
        let next_hops = &mut self.next_hops;
        // The next hop packed last and its index: a burst names one for
        // runs of prefixes, which then cost a compare, not a hash.
        let mut memo: Option<(Ipv4Addr, u16)> = None;
        self.queue.extend(ops.into_iter().map(|op| {
            let (prefix, nh) = match op {
                FibOp::Set { prefix, next_hop } => match memo {
                    Some((addr, index)) if addr == next_hop => (prefix, index),
                    _ => {
                        let index = next_hops.intern(next_hop);
                        memo = Some((next_hop, index));
                        (prefix, index)
                    }
                },
                FibOp::Remove { prefix } => (prefix, PackedOp::REMOVE),
            };
            PackedOp {
                bits: prefix.raw_bits(),
                nh,
                len: prefix.len(),
            }
        }));
        if self.queue.len() > queued {
            self.bursts += 1;
            if was_empty {
                self.busy_until = start;
            } else {
                // Already walking: the new ops join the tail; the delay
                // models CPU work that overlaps the walk, so no extra
                // stall is added.
                self.busy_until = self.busy_until.max(start);
            }
        }
    }

    /// When the next op completes (the owner arms a timer at this time),
    /// or `None` when quiescent. Consumes a jitter draw for non-zero
    /// entry costs (`&mut self` for exactly that reason).
    pub fn next_apply_at(&mut self) -> Option<SimTime> {
        if self.queue.is_empty() {
            return None;
        }
        let cost = self.jittered_entry_cost();
        Some(self.busy_until + cost)
    }

    /// Apply exactly one pending op to `fib` at time `now` (the owner's
    /// timer fired). Returns the op applied.
    pub fn apply_one(&mut self, fib: &mut Fib, now: SimTime) -> Option<FibOp> {
        let packed = self.queue.pop_front()?;
        // A table load fills the queue in its first simulated second and
        // the walk drains it over minutes: hand the high-water mark back
        // as it drains, by amortised halving, instead of holding it for
        // the rest of the run. Releasing on empty alone would be too
        // late — the controller's tables peak while the walk still runs.
        let capacity = self.queue.capacity();
        if capacity > Self::QUEUE_FLOOR && self.queue.len() * 4 <= capacity {
            self.queue.shrink_to((capacity / 2).max(Self::QUEUE_FLOOR));
        }
        let prefix = packed.prefix();
        let op = if packed.nh == PackedOp::REMOVE {
            fib.remove(prefix);
            FibOp::Remove { prefix }
        } else {
            let next_hop = self.next_hops.by_index[packed.nh as usize];
            fib.insert(prefix, FibEntry { next_hop });
            FibOp::Set { prefix, next_hop }
        };
        self.ops_applied += 1;
        self.busy_until = now;
        self.last_apply_at = Some(now);
        Some(op)
    }

    /// Apply the contiguous run of ops due at `now` in one walk tick,
    /// appending each applied op to `applied` (cleared first).
    ///
    /// With a non-zero per-entry cost this is exactly
    /// [`FibWalker::apply_one`] — the next op completes strictly later,
    /// so the run has length 1 and the owner re-arms its timer as
    /// before. With a zero-cost calibration (instant hardware) every
    /// queued op completes at the same instant; draining the whole run
    /// here collapses what used to be one kernel timer event *per
    /// entry* into one event per burst, without moving any op's
    /// completion time. Zero-cost runs consume no jitter draw (jitter
    /// is only drawn for non-zero base costs), so the walker's stream
    /// position is untouched either way.
    pub fn apply_batch(&mut self, fib: &mut Fib, now: SimTime, applied: &mut Vec<FibOp>) {
        applied.clear();
        let Some(op) = self.apply_one(fib, now) else {
            return;
        };
        applied.push(op);
        if self.cal.fib_entry_update.is_zero() {
            while let Some(op) = self.apply_one(fib, now) {
                applied.push(op);
            }
        }
    }

    fn jittered_entry_cost(&mut self) -> SimDuration {
        let base = self.cal.fib_entry_update.as_nanos();
        if base == 0 {
            return SimDuration::ZERO;
        }
        let pct = self.cal.fib_entry_jitter_pct as u64;
        if pct == 0 {
            return self.cal.fib_entry_update;
        }
        let span = base * pct / 100;
        let lo = base - span;
        let hi = base + span;
        let x = splitmix64(&mut self.jitter_state);
        SimDuration::from_nanos(lo + x % (hi - lo + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::mem::size_of;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn nh(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, n, 1)
    }

    /// Drive the walker to quiescence, returning (prefix, completion
    /// time) per applied op.
    fn drain(walker: &mut FibWalker, fib: &mut Fib) -> Vec<(Ipv4Prefix, SimTime)> {
        let mut out = Vec::new();
        while let Some(at) = walker.next_apply_at() {
            let op = walker.apply_one(fib, at).unwrap();
            out.push((op.prefix(), at));
        }
        out
    }

    #[test]
    fn ops_apply_in_order_with_per_entry_cost() {
        let cal = Calibration {
            fib_entry_jitter_pct: 0,
            ..Calibration::nexus7k()
        };
        let mut w = FibWalker::new(cal, 7);
        let mut fib = Fib::new();
        let ops = vec![
            FibOp::Set {
                prefix: p("1.0.0.0/24"),
                next_hop: nh(2),
            },
            FibOp::Set {
                prefix: p("2.0.0.0/24"),
                next_hop: nh(2),
            },
            FibOp::Set {
                prefix: p("3.0.0.0/24"),
                next_hop: nh(2),
            },
        ];
        w.enqueue_burst(SimTime::from_secs(1), ops, true);
        let log = drain(&mut w, &mut fib);
        assert_eq!(log.len(), 3);
        // First completes after peer-down processing + one entry.
        let first_expected =
            SimTime::from_secs(1) + cal.peer_down_processing + cal.fib_entry_update;
        assert_eq!(log[0].1, first_expected);
        // Subsequent entries are spaced exactly one entry cost apart.
        assert_eq!(log[1].1 - log[0].1, cal.fib_entry_update);
        assert_eq!(log[2].1 - log[1].1, cal.fib_entry_update);
        assert_eq!(fib.len(), 3);
        assert!(w.is_quiescent());
    }

    #[test]
    fn linear_walk_matches_fig5_model() {
        // 10k entries must take ≈ 285ms + 10k × 281µs ≈ 3.1s.
        let mut w = FibWalker::new(Calibration::nexus7k(), 7);
        let mut fib = Fib::new();
        let ops: Vec<FibOp> = (0..10_000u32)
            .map(|i| FibOp::Set {
                prefix: Ipv4Prefix::new(Ipv4Addr::from(0x0a00_0000 + (i << 8)), 24),
                next_hop: nh(3),
            })
            .collect();
        w.enqueue_burst(SimTime::ZERO, ops, true);
        let log = drain(&mut w, &mut fib);
        let total = log.last().unwrap().1;
        let expect = Calibration::nexus7k().expected_full_walk(10_000);
        let ratio = total.as_nanos() as f64 / expect.as_nanos() as f64;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "total {total} vs expected {expect}"
        );
    }

    #[test]
    fn remove_ops_delete_entries() {
        let mut w = FibWalker::new(Calibration::instant(), 7);
        let mut fib = Fib::new();
        w.enqueue_burst(
            SimTime::ZERO,
            vec![FibOp::Set {
                prefix: p("1.0.0.0/24"),
                next_hop: nh(2),
            }],
            false,
        );
        drain(&mut w, &mut fib);
        assert_eq!(fib.len(), 1);
        w.enqueue_burst(
            SimTime::from_secs(1),
            vec![FibOp::Remove {
                prefix: p("1.0.0.0/24"),
            }],
            false,
        );
        drain(&mut w, &mut fib);
        assert!(fib.is_empty());
    }

    #[test]
    fn burst_while_walking_joins_tail() {
        let cal = Calibration {
            fib_entry_jitter_pct: 0,
            ..Calibration::nexus7k()
        };
        let mut w = FibWalker::new(cal, 7);
        let mut fib = Fib::new();
        w.enqueue_burst(
            SimTime::ZERO,
            vec![
                FibOp::Set {
                    prefix: p("1.0.0.0/24"),
                    next_hop: nh(2),
                },
                FibOp::Set {
                    prefix: p("2.0.0.0/24"),
                    next_hop: nh(2),
                },
            ],
            true,
        );
        // Apply the first, then a second burst lands mid-walk.
        let t1 = w.next_apply_at().unwrap();
        w.apply_one(&mut fib, t1);
        w.enqueue_burst(
            t1,
            vec![FibOp::Set {
                prefix: p("3.0.0.0/24"),
                next_hop: nh(3),
            }],
            false,
        );
        let log = drain(&mut w, &mut fib);
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].0, p("2.0.0.0/24"), "FIFO preserved");
        assert_eq!(log[1].0, p("3.0.0.0/24"));
        assert_eq!(fib.len(), 3);
    }

    /// The queue's high-water mark goes back as the walk drains, and no
    /// op is lost or reordered for it.
    #[test]
    fn drained_walker_hands_its_queue_back() {
        const OPS: u32 = 100_000;
        let burst = || {
            (0..OPS).map(|i| FibOp::Set {
                prefix: Ipv4Prefix::new(Ipv4Addr::from(0x0a00_0000 + (i << 8)), 24),
                next_hop: nh(3),
            })
        };
        let mut w = FibWalker::new(Calibration::nexus7k(), 7);
        let mut fib = Fib::new();
        w.enqueue_burst(SimTime::ZERO, burst(), true);
        let loaded = w.queue.capacity() * size_of::<PackedOp>();
        assert!(
            (OPS as usize * 8..OPS as usize * 16).contains(&loaded),
            "{loaded} B for {OPS} ops"
        );
        let log = drain(&mut w, &mut fib);
        let held = w.queue.capacity() * size_of::<PackedOp>();
        assert!(held < 64 << 10, "{held} B of queue after the walk");
        assert_eq!((w.ops_applied, fib.len()), (OPS as u64, OPS as usize));
        assert!(log
            .iter()
            .map(|(p, _)| *p)
            .eq(burst().map(|op| op.prefix())));
    }

    /// The walker as it was before its queue was packed: the ops
    /// themselves in the FIFO, the same timing rules.
    struct ReferenceWalker {
        cal: Calibration,
        queue: VecDeque<FibOp>,
        busy_until: SimTime,
        jitter: FibWalker,
    }

    impl ReferenceWalker {
        fn new(cal: Calibration, seed: u64) -> ReferenceWalker {
            ReferenceWalker {
                cal,
                queue: VecDeque::new(),
                busy_until: SimTime::ZERO,
                // An empty walker, kept for its jitter stream alone.
                jitter: FibWalker::new(cal, seed),
            }
        }

        fn enqueue_burst(&mut self, now: SimTime, ops: &[FibOp], session_loss: bool) {
            if ops.is_empty() {
                return;
            }
            let delay = if session_loss {
                self.cal.peer_down_processing
            } else {
                self.cal.update_processing
            };
            let start = self.busy_until.max(now) + delay;
            self.busy_until = if self.queue.is_empty() {
                start
            } else {
                self.busy_until.max(start)
            };
            self.queue.extend(ops);
        }

        fn apply_next(&mut self, fib: &mut Fib) -> Option<(FibOp, SimTime)> {
            let op = self.queue.pop_front()?;
            let at = self.busy_until + self.jitter.jittered_entry_cost();
            match op {
                FibOp::Set { prefix, next_hop } => {
                    fib.insert(prefix, FibEntry { next_hop });
                }
                FibOp::Remove { prefix } => {
                    fib.remove(prefix);
                }
            }
            self.busy_until = at;
            Some((op, at))
        }
    }

    /// Next hop `i` of a pool wider than any one burst repeats.
    fn pool_nh(i: u16) -> Ipv4Addr {
        Ipv4Addr::new(10, 1 + (i / 250) as u8, (i % 250) as u8, 1)
    }

    fn arb_op() -> impl Strategy<Value = FibOp> {
        // A small prefix space, so removes and overwrites hit entries.
        let prefix = |i: u32, len| Ipv4Prefix::new(Ipv4Addr::from(0x0b00_0000 + (i << 8)), len);
        prop_oneof![
            (0u32..64, 20u8..=24, 0u16..400).prop_map(move |(i, len, nh)| FibOp::Set {
                prefix: prefix(i, len),
                next_hop: pool_nh(nh),
            }),
            // Runs of one next hop, as a real burst has them.
            (0u32..64).prop_map(move |i| FibOp::Set {
                prefix: prefix(i, 24),
                next_hop: pool_nh(7),
            }),
            (0u32..64).prop_map(move |i| FibOp::Remove {
                prefix: prefix(i, 24),
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever is queued — over 300 distinct next hops, removes,
        /// bursts that join a walk in progress — the packed queue hands
        /// back the ops a queue of `FibOp`s would, at the same instants,
        /// and leaves the same table.
        #[test]
        fn packed_queue_matches_a_queue_of_ops(
            bursts in vec((vec(arb_op(), 0..40), any::<bool>(), 0usize..50), 1..10),
            jitter_pct in prop_oneof![Just(0u32), Just(10u32)],
        ) {
            let cal = Calibration {
                fib_entry_jitter_pct: jitter_pct,
                ..Calibration::nexus7k()
            };
            let (mut walker, mut fib) = (FibWalker::new(cal, 7), Fib::new());
            let (mut reference, mut ref_fib) = (ReferenceWalker::new(cal, 7), Fib::new());
            let mut now = SimTime::ZERO;
            // Every run starts by interning 320 distinct next hops.
            let wide: Vec<FibOp> = (0..320u16)
                .map(|i| FibOp::Set {
                    prefix: Ipv4Prefix::new(Ipv4Addr::from(0x0c00_0000 + ((i as u32) << 8)), 24),
                    next_hop: pool_nh(i),
                })
                .collect();
            let bursts = std::iter::once((wide, true, 100)).chain(bursts);
            for (ops, session_loss, applies) in bursts {
                walker.enqueue_burst(now, ops.iter().copied(), session_loss);
                reference.enqueue_burst(now, &ops, session_loss);
                // Apply some, so the next burst lands mid-walk (or after
                // the walk has drained).
                for _ in 0..applies {
                    let Some(at) = walker.next_apply_at() else {
                        break;
                    };
                    let got = walker.apply_one(&mut fib, at).map(|op| (op, at));
                    prop_assert_eq!(got, reference.apply_next(&mut ref_fib));
                    now = at;
                }
                prop_assert_eq!(walker.pending(), reference.queue.len());
            }
            while let Some(at) = walker.next_apply_at() {
                let got = walker.apply_one(&mut fib, at).map(|op| (op, at));
                prop_assert_eq!(got, reference.apply_next(&mut ref_fib));
            }
            prop_assert_eq!(reference.apply_next(&mut ref_fib), None);
            prop_assert!(fib.iter().eq(ref_fib.iter()));
        }
    }

    #[test]
    #[should_panic(expected = "distinct next hops")]
    fn next_hop_table_exhaustion_is_loud() {
        let mut w = FibWalker::new(Calibration::instant(), 7);
        let ops = (0..=u16::MAX as u32).map(|i| FibOp::Set {
            prefix: Ipv4Prefix::new(Ipv4Addr::from(i << 8), 24),
            next_hop: Ipv4Addr::from(0x0a00_0000 + i),
        });
        w.enqueue_burst(SimTime::ZERO, ops, false);
    }

    #[test]
    fn jitter_bounds_respected() {
        let cal = Calibration::nexus7k(); // 10% jitter
        let mut w = FibWalker::new(cal, 7);
        for _ in 0..1000 {
            let c = w.jittered_entry_cost();
            let base = cal.fib_entry_update.as_nanos();
            assert!(c.as_nanos() >= base * 90 / 100);
            assert!(c.as_nanos() <= base * 110 / 100);
        }
    }

    #[test]
    fn instant_calibration_applies_immediately() {
        let mut w = FibWalker::new(Calibration::instant(), 7);
        let _fib = Fib::new();
        w.enqueue_burst(
            SimTime::from_millis(5),
            vec![FibOp::Set {
                prefix: p("1.0.0.0/24"),
                next_hop: nh(2),
            }],
            true,
        );
        let at = w.next_apply_at().unwrap();
        assert_eq!(at, SimTime::from_millis(5));
    }
}
