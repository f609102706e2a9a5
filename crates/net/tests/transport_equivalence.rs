//! Transport equivalence: the wire behaviour of [`Endpoint`] is pinned.
//!
//! Each schedule drives an endpoint pair through a seeded network (loss,
//! duplication, reordering jitter) and folds every segment each side
//! emits, with the sim time it was emitted at, into an FNV-1a digest.
//! The digests below were generated by this same driver at the commit
//! *before* the endpoint's send queue was split into an in-flight ring
//! plus an unsent backlog (only `tx`/`rx`, the two adapters onto the
//! `Endpoint` API, differed), so any change to what goes on the wire, or
//! when, fails here.

use sc_net::channel::{ChannelConfig, ChannelEvent, Endpoint};
use sc_net::{SimDuration, SimTime};

/// The next segment `ep` wants on the wire, encoded.
fn tx(ep: &mut Endpoint, now: SimTime) -> Option<Vec<u8>> {
    ep.poll_transmit(now).map(|seg| {
        let mut buf = Vec::new();
        seg.write_to(&mut buf);
        buf
    })
}

/// What `rx` observed: delivered messages, and whether the peer closed.
#[derive(Default)]
struct Inbox {
    messages: Vec<Vec<u8>>,
    closed: bool,
}

/// Feed `seg` to `ep`, recording what it surfaces.
fn rx(ep: &mut Endpoint, seg: &[u8], now: SimTime, inbox: &mut Inbox) {
    ep.on_segment(seg, now, |ev| match ev {
        ChannelEvent::Delivered(m) => inbox.messages.push(m.to_vec()),
        ChannelEvent::PeerClosed => inbox.closed = true,
        ChannelEvent::Connected => {}
    })
    .expect("the driver only delivers well-formed segments");
}

/// SplitMix64: the schedule's only randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        sc_net::splitmix64(&mut self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One side of the pair, with what the driver tracks about it.
struct Side {
    ep: Endpoint,
    /// Messages still to hand to `ep.send`, with their send times.
    to_send: Vec<(SimTime, Vec<u8>)>,
    sent: Vec<Vec<u8>>,
    close_after_send: bool,
    inbox: Inbox,
    /// Digest of the `(sim time, segment bytes)` stream `ep` emitted.
    emitted: Fnv,
    /// One past the highest data/FIN sequence number emitted.
    seq_hi: u64,
    /// Highest cumulative ACK received.
    acked: u64,
    max_in_flight: u64,
}

impl Side {
    fn new(ep: Endpoint, to_send: Vec<(SimTime, Vec<u8>)>, close_after_send: bool) -> Side {
        Side {
            ep,
            to_send,
            sent: Vec::new(),
            close_after_send,
            inbox: Inbox::default(),
            emitted: Fnv::new(),
            seq_hi: 0,
            acked: 0,
            max_in_flight: 0,
        }
    }

    fn next_send(&self) -> Option<SimTime> {
        self.to_send.first().map(|(at, _)| *at)
    }
}

/// Loss / duplication in percent of segments, jitter on top of a 50 µs
/// one-way delay (any jitter above the inter-segment gap reorders).
#[derive(Clone, Copy)]
struct NetParams {
    loss_pct: u64,
    dup_pct: u64,
    jitter_us: u64,
}

const FLAG_DATA: u8 = 0x01;
const FLAG_ACK: u8 = 0x02;
const FLAG_FIN: u8 = 0x08;

struct Outcome {
    digests: [u64; 2],
    max_in_flight: [u64; 2],
    end: SimTime,
}

/// Run one schedule to quiescence: everything sent is delivered, in
/// order, both send queues are empty and nothing is left on the wire.
fn run(seed: u64, cfg: ChannelConfig, net: NetParams, msgs: [usize; 2], spread_us: u64) -> Outcome {
    let mut rng = Rng(seed);
    let plan = |n: usize, rng: &mut Rng| -> Vec<(SimTime, Vec<u8>)> {
        let mut v: Vec<(SimTime, Vec<u8>)> = (0..n)
            .map(|i| {
                let at = SimTime::from_micros(if spread_us == 0 {
                    0
                } else {
                    rng.below(spread_us)
                });
                let len = rng.below(48) as usize;
                let mut m = vec![0u8; len + 4];
                m[..4].copy_from_slice(&(i as u32).to_be_bytes());
                for b in &mut m[4..] {
                    *b = rng.next() as u8;
                }
                (at, m)
            })
            .collect();
        v.sort_by_key(|(at, _)| *at);
        v
    };
    let plan_a = plan(msgs[0], &mut rng);
    let plan_b = plan(msgs[1], &mut rng);
    let mut sides = [
        Side::new(Endpoint::connect(cfg), plan_a, seed % 2 == 1),
        Side::new(Endpoint::listen(cfg), plan_b, false),
    ];
    // (arrival, tie-break, destination side, segment bytes)
    let mut wire: Vec<(SimTime, u64, usize, Vec<u8>)> = Vec::new();
    let mut order = 0u64;
    let mut now = SimTime::ZERO;
    let cap = SimTime::from_secs(600);

    loop {
        // Application sends due now.
        for side in &mut sides {
            while side.next_send().is_some_and(|at| at <= now) {
                let (_, m) = side.to_send.remove(0);
                side.sent.push(m.clone());
                side.ep.send(m);
                if side.to_send.is_empty() && side.close_after_send {
                    side.ep.close();
                }
            }
        }
        // Arrivals due now, in arrival order.
        wire.sort_by_key(|(at, ord, ..)| (*at, *ord));
        let due = wire.partition_point(|(at, ..)| *at <= now);
        for (_, _, to, seg) in wire.drain(..due) {
            let side = &mut sides[to];
            if seg[0] & FLAG_ACK != 0 {
                let ack = u64::from_be_bytes(seg[9..17].try_into().unwrap());
                side.acked = side.acked.max(ack);
            }
            rx(&mut side.ep, &seg, now, &mut side.inbox);
        }
        // Transmit everything due.
        for (from, side) in sides.iter_mut().enumerate() {
            while let Some(seg) = tx(&mut side.ep, now) {
                side.emitted.eat(&now.as_nanos().to_be_bytes());
                side.emitted.eat(&seg);
                if seg[0] & (FLAG_DATA | FLAG_FIN) != 0 {
                    let seq = u64::from_be_bytes(seg[1..9].try_into().unwrap());
                    side.seq_hi = side.seq_hi.max(seq + 1);
                    side.max_in_flight = side
                        .max_in_flight
                        .max(side.seq_hi.saturating_sub(side.acked));
                }
                if rng.below(100) < net.loss_pct {
                    continue;
                }
                let copies = if rng.below(100) < net.dup_pct { 2 } else { 1 };
                for _ in 0..copies {
                    let jitter = if net.jitter_us == 0 {
                        0
                    } else {
                        rng.below(net.jitter_us)
                    };
                    order += 1;
                    wire.push((
                        now + SimDuration::from_micros(50 + jitter),
                        order,
                        1 - from,
                        seg.clone(),
                    ));
                }
            }
        }

        let done = wire.is_empty()
            && sides
                .iter()
                .all(|s| s.to_send.is_empty() && s.ep.backlog() == 0);
        if done {
            break;
        }
        let next = wire
            .iter()
            .map(|(at, ..)| *at)
            .chain(sides.iter().filter_map(Side::next_send))
            .chain(sides.iter().filter_map(|s| s.ep.next_wakeup()))
            .min()
            .expect("an unfinished schedule has a next event");
        assert!(next > now, "time must advance ({next} after {now})");
        assert!(next < cap, "schedule {seed:#x} did not finish");
        now = next;
    }

    for (from, to) in [(0, 1), (1, 0)] {
        assert_eq!(
            sides[to].inbox.messages, sides[from].sent,
            "seed {seed:#x}: side {from}'s messages arrive exactly once, in order"
        );
        assert_eq!(sides[to].inbox.closed, sides[from].close_after_send);
    }
    Outcome {
        digests: [sides[0].emitted.0, sides[1].emitted.0],
        max_in_flight: [sides[0].max_in_flight, sides[1].max_in_flight],
        end: now,
    }
}

const RTO: SimDuration = SimDuration::from_millis(20);

/// (seed, window, net, messages per side, send spread µs, pinned digests)
type Schedule = (u64, usize, NetParams, [usize; 2], u64, [u64; 2]);

const fn net(loss_pct: u64, dup_pct: u64, jitter_us: u64) -> NetParams {
    NetParams {
        loss_pct,
        dup_pct,
        jitter_us,
    }
}

#[rustfmt::skip]
const SCHEDULES: [Schedule; 10] = [
    // Lossless, in order: the steady-state path.
    (0x01, 32, net(0, 0, 0), [400, 0], 0, [0x3d62_fe01_0180_9dab, 0xd186_a509_9398_8f70]),
    (0x02, 8, net(0, 0, 0), [300, 300], 20_000, [0xe1f3_26ac_dcea_e066, 0x175b_7ab3_146f_02de]),
    // Loss only: RTO retransmission, SYN and FIN included.
    (0x03, 8, net(20, 0, 0), [200, 50], 5_000, [0x2663_1c09_7217_914d, 0x6ee8_4de9_2304_03e7]),
    (0x04, 32, net(40, 0, 0), [120, 120], 0, [0x8419_8a32_3376_b89f, 0xc1d8_71b0_dc54_f893]),
    // Duplicates only.
    (0x05, 4, net(0, 30, 0), [200, 200], 10_000, [0x9970_adec_8c55_9d04, 0xf00d_c2b7_61f1_5677]),
    // Reordering only (jitter far above the inter-segment gap).
    (0x06, 16, net(0, 0, 400), [300, 100], 2_000, [0x7519_fcae_c020_ea4e, 0x0fa4_12a6_efa0_5c28]),
    (0x07, 32, net(0, 0, 5_000), [250, 250], 0, [0x7668_d574_e785_2752, 0xb996_350a_2388_f443]),
    // Everything at once.
    (0x08, 8, net(15, 15, 300), [200, 200], 50_000, [0xd26a_029d_f8b7_73b5, 0xa182_7103_3ce7_5cc9]),
    (0x09, 32, net(25, 10, 2_000), [300, 40], 1_000, [0x1693_bed2_3223_c477, 0xd05c_829e_1d3e_7677]),
    (0x0a, 1, net(10, 10, 100), [60, 60], 0, [0xa7f0_0c25_2484_fe44, 0xee31_d194_c3d1_2950]),
];

#[test]
fn seeded_schedules_reproduce_the_pinned_wire_streams() {
    for (seed, window, net, msgs, spread_us, want) in SCHEDULES {
        let cfg = ChannelConfig { rto: RTO, window };
        let out = run(seed, cfg, net, msgs, spread_us);
        assert_eq!(
            out.digests, want,
            "schedule {seed:#x}: emitted (time, bytes) stream changed: {:#018x?}",
            out.digests
        );
        for in_flight in out.max_in_flight {
            assert!(
                in_flight <= window as u64,
                "schedule {seed:#x}: {in_flight} in flight exceeds the window of {window}"
            );
        }
    }
}

/// A 20,000-message backlog behind the default 32-segment window, on a
/// lossless in-order wire: the full-table-load shape.
#[test]
fn lossless_backlog_reproduces_the_pinned_wire_stream() {
    let cfg = ChannelConfig::default();
    let out = run(0xb4c7, cfg, net(0, 0, 0), [20_000, 0], 0);
    assert_eq!(
        out.digests,
        [0x2e56_bf23_51ac_f224, 0x5483_1a16_d290_bc8f],
        "emitted (time, bytes) stream changed: {:#018x?}",
        out.digests
    );
    assert_eq!(out.max_in_flight, [cfg.window as u64, 0]);
    assert!(
        out.end < SimTime::ZERO + cfg.rto,
        "a lossless drain never waits for a retransmission timer"
    );
}
