//! [`Wakeup`]: the one timer discipline for state machines whose
//! deadline moves.
//!
//! A BGP session, a BFD session, a reliable channel, a retry queue, a
//! liveness watchdog: each is a state machine with a `next_wakeup()`
//! that every received packet may move. Kernel timers cannot be
//! cancelled, so the naive glue — "arm whenever the deadline differs
//! from the one I armed" — leaves one superseded timer in the queue per
//! move, and a glue that forgets its marker on *any* fire lets each
//! superseded timer re-arm a deadline that already has one: the
//! duplicates then re-seed themselves every cycle and the run costs
//! O(T²) events in simulated time T.
//!
//! The discipline here keeps at most one *live* timer per state machine:
//!
//! * [`Wakeup::arm`] pushes a timer only when none is pending or the
//!   deadline moved **earlier**. A deadline that moved later arms
//!   nothing — the pending timer fires early, the owner's pump finds
//!   nothing due and re-arms at the deadline of that moment.
//! * [`Wakeup::fired`] forgets the pending timer only on the fire that
//!   *is* it. A superseded timer (one an earlier deadline or a
//!   [`Wakeup::reset`] left behind) is still queued and still fires, but
//!   cannot clear the marker, so it cannot breed a second timer.
//!
//! Guarantee: as long as the owner calls `arm(ctx, next_wakeup())`
//! after every input and every fire, a pending timer always exists at
//! or before `next_wakeup()`, so the owner's pump runs at exactly every
//! deadline instant; and every timer pushed is either the first after
//! a live fire or answers a move-earlier or a reset.
//!
//! A one-shot delay that later requests must not push out (the
//! controller's reaction delay, R1's ARP retry tick) is the same
//! discipline with `arm(now + delay)`: a later deadline arms nothing.

use crate::node::{Ctx, TimerToken};
use sc_net::SimTime;

/// A timer token plus the instant its one live timer fires.
#[derive(Debug)]
pub struct Wakeup {
    token: TimerToken,
    armed: Option<SimTime>,
}

impl Wakeup {
    pub const fn new(token: TimerToken) -> Wakeup {
        Wakeup { token, armed: None }
    }

    /// The token the owner's `on_timer` matches on.
    pub fn token(&self) -> TimerToken {
        self.token
    }

    /// Make sure a timer is pending at or before `deadline` (`None`: the
    /// state machine is quiescent, nothing to do). Call after every
    /// input and after every fire.
    #[allow(
        clippy::disallowed_methods,
        reason = "this is the discipline the timer lint points everyone at"
    )]
    pub fn arm(&mut self, ctx: &mut Ctx, deadline: Option<SimTime>) {
        let Some(at) = deadline else {
            return;
        };
        // The kernel delivers an overdue timer "now"; remember the
        // instant it will really fire so `fired` recognises it.
        let at = at.max(ctx.now());
        if self.armed.is_none_or(|armed| at < armed) {
            self.armed = Some(at);
            ctx.set_timer_at(at, self.token);
        }
    }

    /// A timer carrying [`Wakeup::token`] fired at `now`: was it the live
    /// one? Either way the owner runs its pump and calls [`Wakeup::arm`]
    /// again — a superseded fire finds a live timer already pending and
    /// arms nothing.
    pub fn fired(&mut self, now: SimTime) -> bool {
        let live = self.armed == Some(now);
        if live {
            self.armed = None;
        }
        live
    }

    /// The owner's state machine was replaced (transport reset, process
    /// restart): whatever the pending timer was for no longer applies.
    /// It still fires, as a superseded timer.
    pub fn reset(&mut self) {
        self.armed = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::world::{EventKind, Kernel};
    use sc_net::{splitmix64, SimDuration};
    use std::collections::BTreeMap;

    const TOKEN: TimerToken = TimerToken(7);

    /// The kernel's half of the contract, in miniature: a multiset of
    /// pending timer instants fed by the timers `arm` pushes into a
    /// one-node kernel.
    struct Harness {
        wakeup: Wakeup,
        now: SimTime,
        kernel: Kernel,
        pending: BTreeMap<SimTime, u32>,
        /// The oracle for "live": the most recently pushed timer, unless
        /// a reset disowned it.
        newest: Option<SimTime>,
        timers_set: u64,
    }

    impl Harness {
        fn new() -> Harness {
            let mut kernel = Kernel::new();
            kernel.add_slot("owner");
            Harness {
                wakeup: Wakeup::new(TOKEN),
                now: SimTime::ZERO,
                kernel,
                pending: BTreeMap::new(),
                newest: None,
                timers_set: 0,
            }
        }

        fn arm(&mut self, deadline: Option<SimTime>) {
            self.kernel.now = self.now;
            let node = NodeId(0);
            let mut ctx = Ctx {
                k: &mut self.kernel,
                node,
                cause: 0,
            };
            self.wakeup.arm(&mut ctx, deadline);
            while let Some(ev) = self.kernel.queue.pop() {
                let at = ev.time;
                let (to, EventKind::Timer(token)) = ev.into_event() else {
                    panic!("a wakeup only sets timers");
                };
                assert_eq!((to.node, token), (node, TOKEN));
                assert!(at >= self.now);
                *self.pending.entry(at).or_insert(0) += 1;
                self.newest = Some(at);
                self.timers_set += 1;
            }
        }

        fn pending_count(&self) -> u32 {
            self.pending.values().sum()
        }

        /// Pop the earliest pending timer, advance to it and report
        /// whether the wakeup saw it as live.
        fn fire_next(&mut self) -> Option<bool> {
            let (&at, n) = self.pending.iter_mut().next()?;
            *n -= 1;
            if *n == 0 {
                self.pending.remove(&at);
            }
            self.now = at;
            let live = self.wakeup.fired(at);
            assert_eq!(
                live,
                self.newest == Some(at),
                "live fire misjudged at {at:?}"
            );
            if live {
                self.newest = None;
            }
            Some(live)
        }

        fn reset(&mut self) {
            self.wakeup.reset();
            self.newest = None;
        }
    }

    /// Seeded random deadline moves (earlier / later / cleared), resets
    /// and fires against the model "the pump must run at every deadline
    /// instant": the pump is never late, and every timer pushed is either
    /// the first after a live fire or answers a move-earlier or a reset —
    /// so pending timers never outgrow the superseded ones still queued.
    #[test]
    fn model_check_never_late_and_no_duplicate_timers() {
        let us = |r: u64| SimDuration::from_micros(1 + r % 2_000);
        for seed in 0..64u64 {
            let mut rng = seed;
            let mut h = Harness::new();
            // The model: the owner's current deadline, and the latest
            // one it ever had (so "later" really is later).
            let mut deadline: Option<SimTime> = None;
            let mut latest = SimTime::ZERO;
            let (mut live_fires, mut earlier, mut resets) = (0u64, 0u64, 0u64);
            let mut pumps_at_deadline = 0u64;
            for _ in 0..5_000 {
                match splitmix64(&mut rng) % 16 {
                    // An input moves the deadline later (or sets one).
                    0..=1 => {
                        deadline = Some(latest.max(h.now) + us(splitmix64(&mut rng)));
                    }
                    // An input moves it earlier.
                    2 => {
                        let at = h.now + us(splitmix64(&mut rng));
                        if deadline.is_none_or(|d| at < d) {
                            deadline = Some(at);
                            if h.wakeup.armed.is_some_and(|armed| at < armed) {
                                earlier += 1;
                            }
                        }
                    }
                    // The state machine goes quiescent.
                    3 => deadline = None,
                    // The state machine is replaced.
                    4 => {
                        h.reset();
                        resets += 1;
                        deadline = Some(h.now + us(splitmix64(&mut rng)));
                    }
                    // Time passes: the earliest pending timer fires and
                    // the owner pumps.
                    _ => {
                        let Some(live) = h.fire_next() else {
                            assert_eq!(deadline, None, "seed {seed}: deadline with no timer");
                            continue;
                        };
                        live_fires += u64::from(live);
                        if let Some(d) = deadline {
                            assert!(h.now <= d, "seed {seed}: pump late ({:?} > {d:?})", h.now);
                            if h.now == d {
                                pumps_at_deadline += 1;
                                deadline = Some(d + us(splitmix64(&mut rng)));
                            }
                        }
                    }
                }
                latest = latest.max(deadline.unwrap_or(latest));
                // The owner's contract: arm after every input and fire.
                h.arm(deadline);
                if let Some(d) = deadline {
                    let first = h.pending.keys().next().copied();
                    assert!(
                        first.is_some_and(|t| t <= d),
                        "seed {seed}: no timer at or before {d:?} (first pending {first:?})"
                    );
                }
                assert!(
                    h.timers_set <= 1 + live_fires + earlier + resets,
                    "seed {seed}: {} timers for {live_fires} live fires, \
                     {earlier} moves earlier, {resets} resets",
                    h.timers_set
                );
            }
            assert!(pumps_at_deadline > 100, "seed {seed}: model barely ran");
        }
    }

    /// A strictly periodic deadline costs exactly one timer per period,
    /// however many inputs re-derive it in between.
    #[test]
    fn periodic_deadline_fires_once_per_period() {
        let period = SimDuration::from_millis(1);
        let mut h = Harness::new();
        let mut deadline = h.now + period;
        h.arm(Some(deadline));
        let mut live_fires = 0u64;
        for _ in 0..10_000 {
            // Inputs between ticks re-arm the unchanged deadline.
            for _ in 0..3 {
                h.arm(Some(deadline));
            }
            assert_eq!(h.fire_next(), Some(true));
            assert_eq!(h.now, deadline);
            live_fires += 1;
            deadline = h.now + period;
            h.arm(Some(deadline));
        }
        assert_eq!(live_fires, 10_000);
        assert_eq!(h.timers_set, 10_001);
        assert_eq!(h.pending_count(), 1);
    }

    /// The storm this type exists to prevent: a superseded timer must
    /// not clear the marker, or it re-arms a deadline that already has a
    /// timer and the duplicate re-seeds itself every period.
    #[test]
    fn superseded_fire_does_not_breed() {
        let ms = SimDuration::from_millis;
        let mut h = Harness::new();
        h.arm(Some(SimTime::ZERO + ms(10)));
        // The deadline moves earlier: the 10 ms timer is now superseded.
        h.arm(Some(SimTime::ZERO + ms(4)));
        assert_eq!(h.pending_count(), 2);
        assert_eq!(h.fire_next(), Some(true));
        h.arm(Some(h.now + ms(10))); // next period: 14 ms
        assert_eq!(h.fire_next(), Some(false), "the 10 ms timer is superseded");
        h.arm(Some(SimTime::ZERO + ms(14)));
        assert_eq!(h.pending_count(), 1, "a superseded fire arms nothing");
        // A pre-reset timer cannot clear the post-reset marker either.
        h.reset();
        h.arm(Some(SimTime::ZERO + ms(20)));
        assert_eq!(h.fire_next(), Some(false));
        assert!(h.wakeup.armed.is_some());
        assert_eq!(h.fire_next(), Some(true));
    }

    /// An overdue deadline fires "now" and is still recognised as live.
    #[test]
    fn overdue_deadline_is_clamped_to_now() {
        let mut h = Harness::new();
        h.now = SimTime::ZERO + SimDuration::from_millis(5);
        h.arm(Some(SimTime::ZERO + SimDuration::from_millis(1)));
        assert_eq!(h.fire_next(), Some(true));
        assert_eq!(h.now, SimTime::ZERO + SimDuration::from_millis(5));
        assert!(h.wakeup.armed.is_none());
    }
}
