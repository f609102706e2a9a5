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
//! Every op completes at its own instant: the previous op's completion
//! (or the walk's start) plus one jittered entry cost, drawn once, when
//! the op reaches the head of the queue. The owner does not need one
//! kernel event per op, though. Nothing can read the FIB between two
//! writes unless some other event runs in between, so one tick applies
//! every op that completes before the kernel's horizon
//! ([`FibWalker::apply_until`], with `sc_sim::Ctx::horizon`), each at
//! its own instant, and arms one timer for the first op that does not.
//! What the data plane, a driver or an invariant sample sees of the FIB
//! is the same as with one event per op.
//!
//! Churn offers ops some thirty times faster than the modelled hardware
//! writes them, so the queue runs a million ops deep, but most of those
//! ops repeat: every churn cycle re-sends the same UPDATEs. So the walker
//! stores each burst's ops once, packed (`PackedOp`, 8 bytes: prefix
//! bits, length, and a 2-byte index into the walker's table of next hops,
//! rather than the 16-byte [`FibOp`] callers hand in and get back), and
//! queues *runs*, stretches of that store. A burst equal to a stored one
//! the walk has not reached yet is queued as another pass over those ops,
//! and bursts queued back to back over back-to-back ops share one run,
//! so a repeated churn cycle costs one run, not its ops. The store keeps
//! an op only while a queued run can reach it, never more than twice the
//! deepest backlog, and a drained walker hands it all back. The store is
//! one buffer, not a block per burst: a table load of distinct bursts
//! costs what a queue of its ops did and leaves no small blocks behind in
//! the heap. Sharing changes nothing the walk does: every op of every
//! burst is applied, in FIFO order, at its own instant.

use crate::calibration::Calibration;
use sc_net::fxhash::FxHasher;
use sc_net::{splitmix64, FxHashMap, Ipv4Prefix, PrefixTrie, SimDuration, SimTime};
use std::collections::VecDeque;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::net::Ipv4Addr;

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

/// A [`FibOp`] as the walker stores it: half the size, the next hop
/// replaced by its index in the walker's [`NextHops`]. Indices are never
/// reused, so two packed ops are equal exactly when the ops are.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
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

/// The store position an index entry names: the one at or above `base`
/// that agrees with it in the low 32 bits (the store never holds 2^32
/// ops).
fn position(base: u64, cut: u32) -> u64 {
    base + u64::from(cut.wrapping_sub(base as u32))
}

/// A stretch of the walker's store that the walk applies in order: one
/// burst, or several queued back to back whose ops lie back to back.
#[derive(Debug)]
struct Run {
    /// Where its ops start, counted over every op ever stored.
    at: u64,
    len: u64,
    /// How far the walk had reached into the store ([`FibWalker::frontier`])
    /// when the run was queued: at most `at`, and at most the floor of
    /// every run queued after it.
    floor: u64,
}

/// The serialized hardware-update engine.
#[derive(Debug)]
pub struct FibWalker {
    cal: Calibration,
    /// The stored ops: every burst that was not queued as a copy, in the
    /// order queued. Runs name their ops by position in it.
    store: VecDeque<PackedOp>,
    /// The position of `store`'s first op.
    store_base: u64,
    /// The queue, oldest first.
    queue: VecDeque<Run>,
    /// How many of the head run's ops are applied.
    cursor: u64,
    /// Ops still pending, over every queued run.
    pending: usize,
    /// One past the furthest store position the walk has applied.
    frontier: u64,
    /// Where a burst was stored, by its content hash, both cut to 32
    /// bits (see [`position`]). A hint only: a new burst shares the ops
    /// there if they equal its own and the walk has not reached them.
    index: FxHashMap<u32, u32>,
    /// Where [`FibWalker::enqueue_burst`] packs a burst before the
    /// lookup.
    scratch: Vec<PackedOp>,
    next_hops: NextHops,
    /// Completion instant of the head op (`None` when quiescent): drawn
    /// once, when the op became the head, and kept.
    next_at: Option<SimTime>,
    /// Stats.
    pub ops_applied: u64,
    pub bursts: u64,
    /// Completion time of the most recently applied op: where the next
    /// walk's hardware becomes free.
    pub last_apply_at: Option<SimTime>,
    /// Jitter stream state (see [`splitmix64`]).
    jitter_state: u64,
}

impl FibWalker {
    /// `seed` roots the per-entry jitter stream; routers pass their
    /// router-id so each walker jitters independently but reproducibly.
    pub fn new(cal: Calibration, seed: u64) -> FibWalker {
        let mut jitter_state = seed ^ 0x6A09_E667_F3BC_C909;
        splitmix64(&mut jitter_state);
        FibWalker {
            cal,
            store: VecDeque::new(),
            store_base: 0,
            queue: VecDeque::new(),
            cursor: 0,
            pending: 0,
            frontier: 0,
            index: FxHashMap::default(),
            scratch: Vec::new(),
            next_hops: NextHops::default(),
            next_at: None,
            ops_applied: 0,
            bursts: 0,
            last_apply_at: None,
            jitter_state,
        }
    }

    /// Number of operations still pending.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// True when nothing is queued (the FIB reflects the RIB).
    pub fn is_quiescent(&self) -> bool {
        self.pending == 0
    }

    /// Queue a burst of operations produced by one control-plane event.
    /// A burst that starts a walk pays its control-plane delay first:
    /// `session_loss` bursts the (large) peer-down processing delay,
    /// ordinary update churn the small per-update cost. A burst that
    /// joins a walk in progress goes to the tail and adds no stall: its
    /// delay models CPU work that overlaps the walk, and the head's
    /// completion instant is already drawn.
    ///
    /// A burst equal to one stored where the walk has not reached yet
    /// is queued as a second pass over those ops, not stored again.
    ///
    /// Returns nothing: the caller arms its timer from
    /// [`FibWalker::next_apply_at`].
    pub fn enqueue_burst(
        &mut self,
        now: SimTime,
        ops: impl IntoIterator<Item = FibOp>,
        session_loss: bool,
    ) {
        let next_hops = &mut self.next_hops;
        // The next hop packed last and its index: a burst names one for
        // runs of prefixes, which then cost a compare, not a hash.
        let mut memo: Option<(Ipv4Addr, u16)> = None;
        self.scratch.clear();
        self.scratch.extend(ops.into_iter().map(|op| {
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
        let len = self.scratch.len() as u64;
        if len == 0 {
            return;
        }
        let key = (BuildHasherDefault::<FxHasher>::default().hash_one(&self.scratch) >> 32) as u32;
        let end = self.store_base + self.store.len() as u64;
        let shared = self.index.get(&key).and_then(|&cut| {
            let at = position(self.store_base, cut);
            let from = (at - self.store_base) as usize;
            (at >= self.frontier
                && at + len <= end
                && self
                    .store
                    .range(from..from + len as usize)
                    .eq(&self.scratch))
            .then_some(at)
        });
        let at = shared.unwrap_or_else(|| {
            self.store.extend(&self.scratch);
            self.index.insert(key, end as u32);
            end
        });
        match self.queue.back_mut() {
            Some(tail) if tail.at + tail.len == at => tail.len += len,
            _ => self.queue.push_back(Run {
                at,
                len,
                floor: self.frontier,
            }),
        }
        let was_empty = self.pending == 0;
        self.pending += len as usize;
        self.bursts += 1;
        if was_empty {
            let delay = if session_loss {
                self.cal.peer_down_processing
            } else {
                self.cal.update_processing
            };
            let free = self.last_apply_at.map_or(now, |t| t.max(now));
            self.next_at = Some(free + delay + self.jittered_entry_cost());
        }
    }

    /// When the head op completes (the owner arms a timer at this time),
    /// or `None` when quiescent.
    pub fn next_apply_at(&self) -> Option<SimTime> {
        self.next_at
    }

    /// Apply the head op at `now`, then every following op that completes
    /// at `now` or before `horizon`, each at its own instant, appending
    /// each applied op to `applied` (cleared first). An op at or past the
    /// horizon is left for the owner's next timer
    /// ([`FibWalker::next_apply_at`]), so its ties with other events keep
    /// their order.
    pub fn apply_until(
        &mut self,
        fib: &mut Fib,
        now: SimTime,
        horizon: SimTime,
        applied: &mut Vec<FibOp>,
    ) {
        applied.clear();
        if self.queue.is_empty() {
            return;
        }
        debug_assert_eq!(self.next_at, Some(now), "the head op is not due");
        let mut at = now;
        loop {
            applied.push(self.apply_head(fib, at));
            match self.next_at {
                Some(next) if next == now || next < horizon => at = next,
                _ => return,
            }
        }
    }

    /// [`FibWalker::apply_until`] with no horizon past `now`: the head
    /// op, and with instant hardware every op queued behind it.
    pub fn apply_batch(&mut self, fib: &mut Fib, now: SimTime, applied: &mut Vec<FibOp>) {
        self.apply_until(fib, now, now, applied);
    }

    /// Apply the head op to `fib` at `at`, and draw the completion
    /// instant of the op behind it.
    fn apply_head(&mut self, fib: &mut Fib, at: SimTime) -> FibOp {
        let run = self.queue.front().expect("apply_head on an empty walker");
        let position = run.at + self.cursor;
        let packed = self.store[(position - self.store_base) as usize];
        self.frontier = self.frontier.max(position + 1);
        self.cursor += 1;
        self.pending -= 1;
        if self.cursor == run.len {
            self.cursor = 0;
            self.queue.pop_front();
            self.retire();
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
        self.last_apply_at = Some(at);
        self.next_at = if self.pending == 0 {
            None
        } else {
            Some(at + self.jittered_entry_cost())
        };
        op
    }

    /// Drop the stored ops no queued run can reach: every run lies at or
    /// above its floor, and floors rise along the queue, so the head's
    /// floor bounds them all.
    fn retire(&mut self) {
        let Some(head) = self.queue.front() else {
            // The walk is done, and has applied every stored op. Its
            // backlog sized the store, the queue and the index, its
            // largest burst the scratch; the next walk sizes its own.
            self.store_base += self.store.len() as u64;
            self.store = VecDeque::new();
            self.queue = VecDeque::new();
            self.index = FxHashMap::default();
            self.scratch = Vec::new();
            return;
        };
        let floor = head.floor;
        self.store.drain(..(floor - self.store_base) as usize);
        self.store_base = floor;
        // Keep the index no larger than what it may point at.
        if self.index.len() > self.store.len() {
            let (base, frontier) = (self.store_base, self.frontier);
            self.index
                .retain(|_, &mut cut| position(base, cut) >= frontier);
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

    /// Drive the walker to quiescence one op per tick, returning (prefix,
    /// completion time) per applied op.
    fn drain(walker: &mut FibWalker, fib: &mut Fib) -> Vec<(Ipv4Prefix, SimTime)> {
        let mut out = Vec::new();
        while let Some(at) = walker.next_apply_at() {
            let op = walker.apply_head(fib, at);
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

    /// A burst queued again before the walk reaches it is walked twice
    /// and stored once, in a walk that follows a drained one too.
    #[test]
    fn a_burst_queued_twice_is_stored_once() {
        let mut w = FibWalker::new(Calibration::instant(), 7);
        let mut fib = Fib::new();
        let burst = [p("1.0.0.0/24"), p("2.0.0.0/24")].map(|prefix| FibOp::Set {
            prefix,
            next_hop: nh(2),
        });
        let other = [FibOp::Remove {
            prefix: p("1.0.0.0/24"),
        }];
        for walk in 0..2 {
            w.enqueue_burst(SimTime::ZERO, burst, false);
            w.enqueue_burst(SimTime::ZERO, other, false);
            w.enqueue_burst(SimTime::ZERO, burst, false);
            assert_eq!((w.pending(), w.store.len()), (5, 3), "walk {walk}");
            let log: Vec<Ipv4Prefix> = drain(&mut w, &mut fib)
                .into_iter()
                .map(|(p, _)| p)
                .collect();
            assert_eq!(
                log,
                [
                    "1.0.0.0/24",
                    "2.0.0.0/24",
                    "1.0.0.0/24",
                    "1.0.0.0/24",
                    "2.0.0.0/24"
                ]
                .map(p)
            );
            assert_eq!(fib.len(), 2);
        }
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
        // Apply the first, then a second burst lands mid-walk: the head's
        // instant is already drawn and the burst's update-processing
        // delay overlaps the walk, so it adds no stall.
        let t1 = w.next_apply_at().unwrap();
        w.apply_head(&mut fib, t1);
        let t2 = w.next_apply_at().unwrap();
        w.enqueue_burst(
            t1 + SimDuration::from_micros(100),
            vec![FibOp::Set {
                prefix: p("3.0.0.0/24"),
                next_hop: nh(3),
            }],
            false,
        );
        assert_eq!(w.next_apply_at(), Some(t2));
        let log = drain(&mut w, &mut fib);
        let cost = cal.fib_entry_update;
        assert_eq!(
            log,
            [
                (p("2.0.0.0/24"), t1 + cost),
                (p("3.0.0.0/24"), t1 + cost * 2)
            ],
            "FIFO preserved, one entry cost apart"
        );
        assert_eq!(fib.len(), 3);
    }

    /// A table load of distinct ops is stored once, walked in order with
    /// no op lost, and handed back when the walk drains.
    #[test]
    fn drained_walker_hands_its_queue_back() {
        const OPS: u32 = 100_000;
        const BURST: usize = 1_000;
        let load: Vec<FibOp> = (0..OPS)
            .map(|i| FibOp::Set {
                prefix: Ipv4Prefix::new(Ipv4Addr::from(0x0a00_0000 + (i << 8)), 24),
                next_hop: nh(3),
            })
            .collect();
        let mut w = FibWalker::new(Calibration::nexus7k(), 7);
        let mut fib = Fib::new();
        // A table load arrives one UPDATE-sized burst at a time.
        for burst in load.chunks(BURST) {
            w.enqueue_burst(SimTime::ZERO, burst.iter().copied(), true);
        }
        assert_eq!((w.pending(), w.store.len()), (OPS as usize, OPS as usize));
        let mut log = Vec::new();
        while let Some(at) = w.next_apply_at() {
            log.push(w.apply_head(&mut fib, at).prefix());
            assert!(w.store.len() <= OPS as usize);
        }
        let held = w.store.capacity() * size_of::<PackedOp>()
            + w.queue.capacity() * size_of::<Run>()
            + w.index.capacity() * size_of::<(u32, u32)>()
            + w.scratch.capacity() * size_of::<PackedOp>();
        assert!(held < 64 << 10, "{held} B of queue after the walk");
        assert_eq!((w.ops_applied, fib.len()), (OPS as u64, OPS as usize));
        assert!(log.into_iter().eq(load.iter().map(FibOp::prefix)));
    }

    /// A walk that never drains keeps its store to twice its deepest
    /// backlog, however long it runs: a stored burst that later copies
    /// share goes when they are walked, and so does everything stored
    /// behind it.
    #[test]
    fn a_busy_walk_keeps_its_store_bounded() {
        let cal = Calibration::instant();
        let mut w = FibWalker::new(cal, 7);
        let mut fib = Fib::new();
        let burst = |first: u32| -> Vec<FibOp> {
            (first..first + 20)
                .map(|i| FibOp::Remove {
                    prefix: Ipv4Prefix::new(Ipv4Addr::from(0x0a00_0000 + (i << 8)), 24),
                })
                .collect()
        };
        let again = burst(0);
        let mut deepest = 0;
        for step in 0..5_000u32 {
            // One fresh burst and one that recurs, 40 ops, and 30 applied
            // until the backlog reaches 1,000, then 40.
            w.enqueue_burst(SimTime::ZERO, burst(1 + step * 20), false);
            w.enqueue_burst(SimTime::ZERO, again.iter().copied(), false);
            deepest = deepest.max(w.pending());
            let applies = if step < 100 { 30 } else { 40 };
            for _ in 0..applies {
                let at = w.next_apply_at().expect("the walk never drains");
                w.apply_head(&mut fib, at);
            }
            assert!(!w.is_quiescent());
            assert!(
                w.store.len() <= 2 * deepest,
                "step {step}: {} ops stored, backlog at most {deepest}",
                w.store.len()
            );
            assert!(w.index.len() <= w.store.len());
        }
    }

    /// The walker as it was before its queue was packed and its head's
    /// instant kept: the ops themselves in the FIFO, each op's instant
    /// drawn when it applies, the same timing rules.
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
            // Only a burst that starts a walk stalls it; one that joins a
            // walk in progress goes to the tail.
            if self.queue.is_empty() {
                let delay = if session_loss {
                    self.cal.peer_down_processing
                } else {
                    self.cal.update_processing
                };
                self.busy_until = self.busy_until.max(now) + delay;
            }
            self.queue.extend(ops);
        }

        /// Where the walker's jitter stream should stand: the reference
        /// draws an op's cost when it applies, the walker when the op
        /// becomes the head, so a walker with ops pending is one draw
        /// ahead.
        fn walker_jitter_state(&self) -> u64 {
            let mut ahead = FibWalker {
                jitter_state: self.jitter.jitter_state,
                ..FibWalker::new(self.cal, 0)
            };
            if !self.queue.is_empty() {
                ahead.jittered_entry_cost();
            }
            ahead.jitter_state
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

    /// Up to ten bursts, each with `rest`. About half are fresh ops; the
    /// others are drawn again from a pool of three, so a burst is queued
    /// again while an earlier copy of it is partly applied, or after it
    /// drained.
    fn arb_bursts<T: Clone + std::fmt::Debug>(
        rest: impl Strategy<Value = T>,
    ) -> impl Strategy<Value = Vec<(Vec<FibOp>, T)>> {
        let pick = (vec(arb_op(), 0..40), proptest::option::of(0usize..3));
        (vec(vec(arb_op(), 1..12), 3), vec((pick, rest), 1..10)).prop_map(|(pool, bursts)| {
            bursts
                .into_iter()
                .map(|((fresh, again), rest)| (again.map_or(fresh, |i| pool[i].clone()), rest))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever is queued — over 300 distinct next hops, removes,
        /// bursts that join a walk in progress, bursts queued again while
        /// a copy is partly applied — the queue of shared bursts hands
        /// back the ops a queue of `FibOp`s would, at the same instants,
        /// and leaves the same table, the same pending count and the
        /// jitter stream at the same position after every op.
        #[test]
        fn packed_queue_matches_a_queue_of_ops(
            bursts in arb_bursts((any::<bool>(), 0usize..50)),
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
            let bursts = std::iter::once((wide, (true, 100))).chain(bursts);
            // The last round drains what is left.
            let drain = (Vec::new(), (false, usize::MAX));
            let mut deepest = 0;
            for (ops, (session_loss, applies)) in bursts.chain([drain]) {
                walker.enqueue_burst(now, ops.iter().copied(), session_loss);
                reference.enqueue_burst(now, &ops, session_loss);
                prop_assert_eq!(walker.pending(), reference.queue.len());
                deepest = deepest.max(walker.pending());
                // Apply some, so the next burst lands mid-walk (or after
                // the walk has drained).
                for _ in 0..applies {
                    let Some(at) = walker.next_apply_at() else {
                        break;
                    };
                    let got = (walker.apply_head(&mut fib, at), at);
                    prop_assert_eq!(Some(got), reference.apply_next(&mut ref_fib));
                    prop_assert_eq!(walker.pending(), reference.queue.len());
                    prop_assert_eq!(walker.jitter_state, reference.walker_jitter_state());
                    prop_assert!(fib.iter().eq(ref_fib.iter()));
                    prop_assert!(walker.store.len() <= 2 * deepest);
                    now = at;
                }
            }
            prop_assert_eq!(reference.apply_next(&mut ref_fib), None);
            prop_assert!(walker.store.is_empty() && walker.index.is_empty(), "a drained walker stores nothing");
        }

        /// Draining to a horizon changes nothing the walk writes: for any
        /// bursts (some joining a walk in progress, some queued again
        /// while a copy is partly applied), calibration and horizon,
        /// each `apply_until` tick applies exactly the ops one tick per
        /// op applies at `now` and before the horizon, in order, at the
        /// same instants, and leaves the same table, the same next
        /// instant and the jitter stream at the same position. A queue of
        /// `FibOp`s walked alongside applies the same ops at the same
        /// instants, and after each tick leaves the same table and the
        /// same pending count.
        #[test]
        fn apply_until_matches_one_op_per_tick(
            bursts in arb_bursts((any::<bool>(), 0usize..6, arb_horizon())),
            cal in prop_oneof![
                Just(Calibration::nexus7k()),
                Just(Calibration { fib_entry_jitter_pct: 0, ..Calibration::nexus7k() }),
                Just(Calibration::instant()),
            ],
        ) {
            let (mut batched, mut fib) = (FibWalker::new(cal, 7), Fib::new());
            let (mut single, mut single_fib) = (FibWalker::new(cal, 7), Fib::new());
            let (mut reference, mut ref_fib) = (ReferenceWalker::new(cal, 7), Fib::new());
            let mut now = SimTime::ZERO;
            let mut applied = Vec::new();
            // The last round drains what is left with no horizon at all.
            let drain = (Vec::new(), (false, usize::MAX, Horizon::Unbounded));
            for (ops, (session_loss, ticks, horizon)) in bursts.into_iter().chain([drain]) {
                batched.enqueue_burst(now, ops.iter().copied(), session_loss);
                single.enqueue_burst(now, ops.iter().copied(), session_loss);
                reference.enqueue_burst(now, &ops, session_loss);
                for _ in 0..ticks {
                    let Some(at) = batched.next_apply_at() else {
                        break;
                    };
                    // The reference: one tick per op, each at its instant,
                    // checked against the queue of `FibOp`s op by op.
                    let mut log = Vec::new();
                    let mut tick = |single: &mut FibWalker, log: &mut Vec<(FibOp, SimTime)>| {
                        let t = single.next_apply_at().expect("the reference ran dry");
                        let got = (single.apply_head(&mut single_fib, t), t);
                        assert_eq!(Some(got), reference.apply_next(&mut ref_fib));
                        log.push(got);
                    };
                    let h = match horizon {
                        Horizon::After(ns) => at + SimDuration::from_nanos(ns),
                        Horizon::AtOp(k) => {
                            for _ in 0..k {
                                if single.next_apply_at().is_some() {
                                    tick(&mut single, &mut log);
                                }
                            }
                            single.next_apply_at().unwrap_or(SimTime::MAX)
                        }
                        Horizon::Unbounded => SimTime::MAX,
                    };
                    batched.apply_until(&mut fib, at, h, &mut applied);
                    while log.len() < applied.len() {
                        tick(&mut single, &mut log);
                    }
                    let (want, instants): (Vec<_>, Vec<_>) = log.into_iter().unzip();
                    prop_assert_eq!(&applied, &want);
                    prop_assert_eq!(instants[0], at);
                    prop_assert!(instants.iter().all(|&t| t == at || t < h));
                    prop_assert_eq!(batched.last_apply_at, instants.last().copied());
                    // The batch stopped at the first op not due before
                    // the horizon.
                    let next = single.next_apply_at();
                    prop_assert!(next.is_none_or(|t| t != at && t >= h), "{:?} vs {:?}", next, h);
                    prop_assert_eq!(batched.next_apply_at(), next);
                    prop_assert_eq!(batched.jitter_state, single.jitter_state);
                    prop_assert_eq!(batched.jitter_state, reference.walker_jitter_state());
                    prop_assert_eq!(batched.pending(), reference.queue.len());
                    prop_assert!(fib.iter().eq(ref_fib.iter()));
                    now = instants[instants.len() - 1];
                }
            }
            prop_assert!(batched.is_quiescent() && single.is_quiescent());
            prop_assert_eq!(reference.apply_next(&mut ref_fib), None);
            prop_assert_eq!(batched.ops_applied, single.ops_applied);
            prop_assert!(fib.iter().eq(single_fib.iter()));
        }
    }

    /// Where a tick's horizon lies.
    #[derive(Clone, Copy, Debug)]
    enum Horizon {
        /// This far past the tick: 0 (a co-timed event), a few µs, a few
        /// entry costs, a minute.
        After(u64),
        /// Exactly at the instant of the op this many places behind the
        /// head: a tie, which waits for its own timer.
        AtOp(usize),
        /// `SimTime::MAX`.
        Unbounded,
    }

    fn arb_horizon() -> impl Strategy<Value = Horizon> {
        prop_oneof![
            Just(Horizon::After(0)),
            (1u64..5_000).prop_map(Horizon::After),
            (5_000u64..2_000_000).prop_map(Horizon::After),
            Just(Horizon::After(60_000_000_000)),
            (1usize..6).prop_map(Horizon::AtOp),
            Just(Horizon::Unbounded),
        ]
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
