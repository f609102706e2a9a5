//! The flat FIB and the entry-by-entry FIB walker.
//!
//! In the paper's stock router every FIB entry holds its own L2 next-hop
//! information (Fig. 1), so a peer failure forces the router to rewrite
//! *each* affected entry; the rewrite is serialized in hardware. The
//! walker models exactly that: a FIFO of pending operations drained at
//! the calibrated per-entry cost, with the data plane reading only the
//! already-updated state. What the traffic sink then measures per flow
//! is the paper's convergence distribution.

use crate::calibration::Calibration;
use sc_net::{Ipv4Prefix, PrefixTrie, SimDuration, SimTime};
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

/// The serialized hardware-update engine.
#[derive(Debug)]
pub struct FibWalker {
    cal: Calibration,
    queue: VecDeque<FibOp>,
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
    /// (64 KiB): ordinary churn bursts never reallocate.
    const QUEUE_FLOOR: usize = 4096;

    /// `seed` roots the per-entry jitter stream; routers pass their
    /// router-id so each walker jitters independently but reproducibly.
    pub fn new(cal: Calibration, seed: u64) -> FibWalker {
        let mut jitter_state = seed ^ 0x6A09_E667_F3BC_C909;
        splitmix64(&mut jitter_state);
        FibWalker {
            cal,
            queue: VecDeque::new(),
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
        let mut queued_any = false;
        for op in ops {
            self.queue.push_back(op);
            queued_any = true;
        }
        if queued_any {
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
        let op = self.queue.pop_front()?;
        // A table load fills the queue in its first simulated second and
        // the walk drains it over minutes: hand the high-water mark back
        // as it drains, by amortised halving, instead of holding it for
        // the rest of the run. Releasing on empty alone would be too
        // late — the controller's tables peak while the walk still runs.
        let capacity = self.queue.capacity();
        if capacity > Self::QUEUE_FLOOR && self.queue.len() * 4 <= capacity {
            self.queue.shrink_to((capacity / 2).max(Self::QUEUE_FLOOR));
        }
        match op {
            FibOp::Set { prefix, next_hop } => {
                fib.insert(prefix, FibEntry { next_hop });
            }
            FibOp::Remove { prefix } => {
                fib.remove(prefix);
            }
        }
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
        let loaded = w.queue.capacity() * size_of::<FibOp>();
        assert!(loaded >= OPS as usize * 16, "{loaded} B for {OPS} ops");
        let log = drain(&mut w, &mut fib);
        let held = w.queue.capacity() * size_of::<FibOp>();
        assert!(held < 128 << 10, "{held} B of queue after the walk");
        assert_eq!((w.ops_applied, fib.len()), (OPS as u64, OPS as usize));
        assert!(log
            .iter()
            .map(|(p, _)| *p)
            .eq(burst().map(|op| op.prefix())));
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
