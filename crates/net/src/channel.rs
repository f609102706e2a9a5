//! A reliable, in-order *message* transport — a deliberately simplified
//! TCP.
//!
//! BGP and OpenFlow both assume a reliable, ordered byte stream (real
//! deployments use TCP). Re-implementing full TCP would add nothing to
//! the paper's experiments, which depend only on reliable in-order
//! delivery and latency; this module provides exactly that as a
//! **poll-based state machine** in the style the networking guides
//! recommend (no I/O, no timers of its own — the caller supplies `now`
//! and asks what to transmit, which is what a discrete-event node needs).
//!
//! Properties:
//! * message-oriented: each `send` is delivered as one message;
//! * cumulative ACKs, fixed RTO retransmission, bounded in-flight window;
//! * out-of-order segments are buffered and re-sequenced;
//! * duplicate segments are discarded and re-ACKed;
//! * a 2-segment handshake (`SYN` / `SYN|ACK`) and a `FIN` half-close.
//!
//! The simplifications versus TCP (no window scaling, no congestion
//! control, no byte-stream framing) are documented in `DESIGN.md` §2.

use crate::time::{SimDuration, SimTime};
use crate::wire::{need, WireError};
use std::collections::{BTreeMap, VecDeque};

const FLAG_DATA: u8 = 0x01;
const FLAG_ACK: u8 = 0x02;
const FLAG_SYN: u8 = 0x04;
const FLAG_FIN: u8 = 0x08;

/// Fixed segment header: flags(1) seq(8) ack(8) len(2).
pub const SEGMENT_HEADER_LEN: usize = 19;

/// Configuration for a channel endpoint.
#[derive(Clone, Copy, Debug)]
pub struct ChannelConfig {
    /// Retransmission timeout for unacknowledged segments.
    pub rto: SimDuration,
    /// Maximum number of unacknowledged data segments in flight.
    pub window: usize,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            rto: SimDuration::from_millis(200),
            window: 32,
        }
    }
}

/// Connection state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChannelState {
    /// Passive side waiting for a SYN (the initial state).
    Listen,
    /// Active side: SYN sent, waiting for SYN|ACK.
    SynSent,
    /// Both sides may exchange data.
    Established,
    /// Peer sent FIN (or we did); no further data expected.
    Closed,
}

/// Events surfaced to the application by [`Endpoint::on_segment`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChannelEvent<'a> {
    /// The handshake completed (reported once per endpoint).
    Connected,
    /// An application message arrived, in order. The bytes are borrowed
    /// from the segment being processed (or from the re-sequencing
    /// buffer) and are gone when the callback returns.
    Delivered(&'a [u8]),
    /// The peer closed the channel.
    PeerClosed,
}

/// Counters for diagnostics and tests.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ChannelStats {
    pub segments_sent: u64,
    pub segments_received: u64,
    pub retransmits: u64,
    pub duplicates_dropped: u64,
    pub messages_delivered: u64,
}

/// One segment as it appears on the wire; the payload is borrowed from
/// whoever holds it (the endpoint's send queue, or a received datagram).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Segment<'a> {
    flags: u8,
    seq: u64,
    ack: u64,
    payload: &'a [u8],
}

impl<'a> Segment<'a> {
    /// Append the encoded segment to `buf`: the only copy the payload
    /// takes between the send queue and the wire.
    pub fn write_to(&self, buf: &mut Vec<u8>) {
        buf.reserve(SEGMENT_HEADER_LEN + self.payload.len());
        buf.push(self.flags);
        buf.extend_from_slice(&self.seq.to_be_bytes());
        buf.extend_from_slice(&self.ack.to_be_bytes());
        buf.extend_from_slice(&(self.payload.len() as u16).to_be_bytes());
        buf.extend_from_slice(self.payload);
    }

    fn parse(seg: &'a [u8]) -> Result<Segment<'a>, WireError> {
        need(seg, SEGMENT_HEADER_LEN)?;
        let len = u16::from_be_bytes([seg[17], seg[18]]) as usize;
        if seg.len() < SEGMENT_HEADER_LEN + len {
            return Err(WireError::BadLength);
        }
        Ok(Segment {
            flags: seg[0],
            seq: u64::from_be_bytes(seg[1..9].try_into().unwrap()),
            ack: u64::from_be_bytes(seg[9..17].try_into().unwrap()),
            payload: &seg[SEGMENT_HEADER_LEN..SEGMENT_HEADER_LEN + len],
        })
    }
}

/// A queued outgoing message (or FIN).
#[derive(Debug)]
struct Message {
    seq: u64,
    payload: Vec<u8>,
    fin: bool,
}

/// A transmitted, not yet acknowledged message.
#[derive(Debug)]
struct InFlight {
    msg: Message,
    last_sent: SimTime,
}

/// One endpoint of a reliable message channel.
#[derive(Debug)]
pub struct Endpoint {
    cfg: ChannelConfig,
    state: ChannelState,
    /// Next sequence number to assign to an outgoing message.
    next_seq: u64,
    /// Transmitted and unacknowledged messages, in seq order; never more
    /// than `cfg.window`. Timers, retransmission and ACK processing look
    /// only here, so their cost does not depend on the backlog.
    in_flight: VecDeque<InFlight>,
    /// Messages not transmitted yet, in seq order (all after
    /// `in_flight`).
    unsent: VecDeque<Message>,
    /// Next expected incoming sequence number.
    recv_next: u64,
    /// Out-of-order buffer: seq -> (payload, fin).
    reorder: BTreeMap<u64, (Vec<u8>, bool)>,
    /// A (re-)ACK should be emitted even if there is no data to send.
    ack_pending: bool,
    /// SYN bookkeeping.
    syn_last_sent: Option<SimTime>,
    /// True once we have proof the peer's handshake completed: an
    /// opener stuck in SynSent only ever emits pure SYNs, so any
    /// received segment *without* the SYN flag is that proof. Until
    /// then a listener keeps the SYN flag on everything it sends
    /// (SYN|ACK, and SYN-marked data/FIN), so the opener can complete
    /// even when its SYN|ACK was lost or data was piggy-backed over it.
    peer_handshake_done: bool,
    connected_reported: bool,
    stats: ChannelStats,
    /// Recycled message buffers: acknowledged payloads return here and
    /// [`Endpoint::take_buffer`] reuses them, so a steady-state sender
    /// allocates no fresh `Vec<u8>` per message.
    free: Vec<Vec<u8>>,
}

/// Cap on recycled message buffers kept per endpoint (a few windows'
/// worth; beyond that the memory is better returned to the allocator).
const FREE_POOL_CAP: usize = 64;

impl Endpoint {
    /// A passive endpoint, waiting for the peer's SYN.
    pub fn listen(cfg: ChannelConfig) -> Endpoint {
        Endpoint {
            cfg,
            state: ChannelState::Listen,
            next_seq: 0,
            in_flight: VecDeque::new(),
            unsent: VecDeque::new(),
            recv_next: 0,
            reorder: BTreeMap::new(),
            ack_pending: false,
            syn_last_sent: None,
            peer_handshake_done: false,
            connected_reported: false,
            stats: ChannelStats::default(),
            free: Vec::new(),
        }
    }

    /// An active endpoint; a SYN will be emitted by the next
    /// [`Endpoint::poll_transmit`].
    pub fn connect(cfg: ChannelConfig) -> Endpoint {
        let mut ep = Endpoint::listen(cfg);
        ep.state = ChannelState::SynSent;
        ep
    }

    /// Current connection state.
    pub fn state(&self) -> ChannelState {
        self.state
    }

    /// Diagnostics counters.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Number of queued-or-in-flight outgoing messages.
    pub fn backlog(&self) -> usize {
        self.in_flight.len() + self.unsent.len()
    }

    /// Queue an application message for reliable delivery.
    ///
    /// Messages may be queued in any state; they flow once established.
    pub fn send(&mut self, msg: Vec<u8>) {
        self.enqueue(msg, false);
    }

    /// A cleared buffer from the recycle pool (or a fresh one). Encode
    /// into it and hand it back via [`Endpoint::send`]: the zero-alloc,
    /// zero-copy send path (acknowledged messages return their buffers
    /// to the pool, so a steady-state control-plane sender performs no
    /// allocation per message).
    pub fn take_buffer(&mut self) -> Vec<u8> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Queue a FIN: the peer will observe [`ChannelEvent::PeerClosed`]
    /// after all preceding messages are delivered.
    pub fn close(&mut self) {
        self.enqueue(Vec::new(), true);
    }

    fn enqueue(&mut self, payload: Vec<u8>, fin: bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unsent.push_back(Message { seq, payload, fin });
    }

    /// Process an incoming segment, handing application events to
    /// `on_event` in order.
    pub fn on_segment(
        &mut self,
        seg: &[u8],
        _now: SimTime,
        mut on_event: impl FnMut(ChannelEvent<'_>),
    ) -> Result<(), WireError> {
        let Segment {
            flags,
            seq,
            ack,
            payload,
        } = Segment::parse(seg)?;
        self.stats.segments_received += 1;

        // A listener only reacts to SYNs. Anything else is a stray
        // segment from a *previous* connection on the same 5-tuple (the
        // peer retransmitting across a [`Endpoint::listen`] reset);
        // buffering it would leak old-epoch data into the next
        // connection's sequence space. Real TCP would RST; we drop and
        // let the peer's own reset/retransmission sort it out.
        if self.state == ChannelState::Listen && flags & FLAG_SYN == 0 {
            self.stats.duplicates_dropped += 1;
            return Ok(());
        }
        // Any segment without SYN proves the peer is past its handshake
        // (an opener in SynSent only emits pure SYNs) — we can stop
        // SYN-marking our own transmissions.
        if flags & FLAG_SYN == 0 {
            self.peer_handshake_done = true;
        }
        // Data is only acceptable once our handshake completed, with
        // one exception: a just-accepted listener SYN-marks its data
        // (piggy-backed over the SYN|ACK), which is same-epoch by
        // construction. Anything else reaching a SynSent endpoint is
        // old-epoch traffic from before a transport reset — buffering
        // it would leak stale bytes into the new connection's sequence
        // space. Genuine data dropped here is repaired by
        // retransmission once we are established.
        let data_acceptable =
            self.state != ChannelState::SynSent || (flags & FLAG_SYN != 0 && flags & FLAG_ACK != 0);

        // --- handshake ---
        if flags & FLAG_SYN != 0 {
            match self.state {
                ChannelState::Listen => {
                    self.state = ChannelState::Established;
                    // Reply with SYN|ACK at next poll.
                    self.syn_last_sent = None;
                    self.ack_pending = true;
                    if !self.connected_reported {
                        self.connected_reported = true;
                        on_event(ChannelEvent::Connected);
                    }
                }
                ChannelState::SynSent if flags & FLAG_ACK != 0 => {
                    self.state = ChannelState::Established;
                    // The SYN|ACK sender was a listener: it completed.
                    self.peer_handshake_done = true;
                    if !self.connected_reported {
                        self.connected_reported = true;
                        on_event(ChannelEvent::Connected);
                    }
                }
                ChannelState::Established => {
                    if flags == FLAG_SYN && self.recv_next > 0 {
                        // A *pure* SYN after data flowed is not a
                        // handshake duplicate — only a fresh opener
                        // emits those, so the peer reset its endpoint
                        // and is opening a NEW connection against our
                        // stale one. Real TCP would exchange
                        // challenge-ACK/RST; we surface the old
                        // connection's death so the owner resets us
                        // too, and the peer's SYN retransmission then
                        // lands on a fresh endpoint.
                        self.state = ChannelState::Closed;
                        on_event(ChannelEvent::PeerClosed);
                        return Ok(());
                    }
                    // A pure duplicate SYN of the current handshake
                    // (our SYN|ACK was lost): re-ACK it. SYN-marked
                    // data/ACK segments from a listener that has not
                    // heard from us yet fall through to the normal
                    // ACK/data handling below.
                    if flags == FLAG_SYN {
                        self.ack_pending = true;
                        self.stats.duplicates_dropped += 1;
                    }
                }
                _ => {}
            }
        }

        // --- acknowledgements ---
        // Note: a *pure* ACK never completes the active open — the
        // handshake section above requires the listener's SYN|ACK. A
        // pure ACK reaching a SynSent endpoint can only be old-epoch
        // traffic from a peer that still holds the previous connection
        // (re-ACKing our SYN as a "duplicate"); treating it as a
        // handshake completion would black-hole the new epoch's data as
        // duplicates on the peer. (In SynSent nothing has been
        // transmitted, so the cumulative-ACK pop below is a no-op.)
        if flags & FLAG_ACK != 0 {
            while self.in_flight.front().is_some_and(|f| f.msg.seq < ack) {
                let acked = self.in_flight.pop_front().expect("front exists");
                if self.free.len() < FREE_POOL_CAP {
                    self.free.push(acked.msg.payload);
                }
            }
        }

        // --- data / fin ---
        if flags & (FLAG_DATA | FLAG_FIN) != 0 && data_acceptable {
            let is_fin = flags & FLAG_FIN != 0;
            self.ack_pending = true;
            if seq < self.recv_next {
                // Duplicate: our ACK was lost; re-ACK.
                self.stats.duplicates_dropped += 1;
            } else if seq > self.recv_next {
                self.reorder.insert(seq, (payload.to_vec(), is_fin));
            } else {
                // In order: deliver straight from the segment, then any
                // buffered run it made contiguous.
                self.deliver(payload, is_fin, &mut on_event);
                while let Some((p, fin)) = self.reorder.remove(&self.recv_next) {
                    self.deliver(&p, fin, &mut on_event);
                }
            }
        }

        Ok(())
    }

    fn deliver(&mut self, payload: &[u8], fin: bool, on_event: &mut impl FnMut(ChannelEvent<'_>)) {
        self.recv_next += 1;
        if fin {
            self.state = ChannelState::Closed;
            on_event(ChannelEvent::PeerClosed);
        } else {
            self.stats.messages_delivered += 1;
            on_event(ChannelEvent::Delivered(payload));
        }
    }

    /// Ask the endpoint for the next segment to put on the wire, if any.
    /// Call repeatedly until it returns `None`. Deterministic in `now`.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<Segment<'_>> {
        // 1. Handshake segments.
        match self.state {
            ChannelState::SynSent => {
                if self
                    .syn_last_sent
                    .is_some_and(|t| now.saturating_duration_since(t) < self.cfg.rto)
                {
                    return None; // no data before establishment
                }
                if self.syn_last_sent.is_some() {
                    self.stats.retransmits += 1;
                }
                self.syn_last_sent = Some(now);
                return Some(self.control(FLAG_SYN));
            }
            ChannelState::Listen => return None,
            _ => {}
        }

        // Until the peer is proven established, every segment carries
        // SYN: a just-accepted listener's SYN|ACK may be overtaken by
        // its own piggy-backed data, and the opener must be able to
        // complete off either — while *refusing* unmarked segments,
        // which can only be old-epoch traffic across a transport reset.
        let syn_mark = if self.peer_handshake_done {
            0
        } else {
            FLAG_SYN
        };

        // 2. Data: retransmissions first (oldest outstanding), then fresh
        //    segments while the window allows.
        let rto = self.cfg.rto;
        let mut idx = self
            .in_flight
            .iter()
            .position(|f| now.saturating_duration_since(f.last_sent) >= rto);
        if idx.is_some() {
            self.stats.retransmits += 1;
        } else if self.in_flight.len() < self.cfg.window {
            if let Some(msg) = self.unsent.pop_front() {
                idx = Some(self.in_flight.len());
                self.in_flight.push_back(InFlight {
                    msg,
                    last_sent: now,
                });
            }
        }
        if let Some(idx) = idx {
            self.stats.segments_sent += 1;
            self.ack_pending = false;
            let item = &mut self.in_flight[idx];
            item.last_sent = now;
            let kind = if item.msg.fin { FLAG_FIN } else { FLAG_DATA };
            return Some(Segment {
                flags: kind | FLAG_ACK | syn_mark,
                seq: item.msg.seq,
                ack: self.recv_next,
                payload: &item.msg.payload,
            });
        }

        // 3. Pure ACK (doubles as the listener's SYN|ACK reply while the
        //    opener has not completed).
        if self.ack_pending {
            self.ack_pending = false;
            return Some(self.control(FLAG_ACK | syn_mark));
        }

        None
    }

    /// Earliest instant at which [`Endpoint::poll_transmit`] could have
    /// new work due to a timeout (retransmission), if any.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let syn = match self.state {
            ChannelState::SynSent => self.syn_last_sent,
            _ => None,
        };
        self.in_flight
            .iter()
            .map(|f| f.last_sent)
            .chain(syn)
            .min()
            .map(|t| t + self.cfg.rto)
    }

    /// A payload-free segment (SYN, SYN|ACK, pure ACK).
    fn control(&mut self, flags: u8) -> Segment<'static> {
        self.stats.segments_sent += 1;
        Segment {
            flags,
            seq: 0,
            ack: self.recv_next,
            payload: &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// An owned [`ChannelEvent`], so tests can collect them.
    #[derive(Clone, PartialEq, Eq, Debug)]
    enum Ev {
        Connected,
        Delivered(Vec<u8>),
        PeerClosed,
    }

    /// Feed `seg` to `ep`, returning the events it surfaced.
    fn rx(ep: &mut Endpoint, seg: &[u8], now: SimTime) -> Result<Vec<Ev>, WireError> {
        let mut events = Vec::new();
        ep.on_segment(seg, now, |ev| {
            events.push(match ev {
                ChannelEvent::Connected => Ev::Connected,
                ChannelEvent::Delivered(m) => Ev::Delivered(m.to_vec()),
                ChannelEvent::PeerClosed => Ev::PeerClosed,
            })
        })?;
        Ok(events)
    }

    /// A hand-built segment with sequence number 0.
    fn segment(flags: u8, ack: u64, payload: &[u8]) -> Vec<u8> {
        encoded(Segment {
            flags,
            seq: 0,
            ack,
            payload,
        })
    }

    fn encoded(seg: Segment<'_>) -> Vec<u8> {
        let mut buf = Vec::new();
        seg.write_to(&mut buf);
        buf
    }

    /// The next segment `ep` wants on the wire, encoded.
    fn tx(ep: &mut Endpoint, now: SimTime) -> Option<Vec<u8>> {
        ep.poll_transmit(now).map(encoded)
    }

    /// Drive both endpoints until neither has anything to transmit,
    /// delivering every segment with optional loss decided by `lose`.
    fn pump(
        a: &mut Endpoint,
        b: &mut Endpoint,
        now: SimTime,
        mut lose: impl FnMut(usize) -> bool,
    ) -> (Vec<Ev>, Vec<Ev>) {
        let mut ev_a = Vec::new();
        let mut ev_b = Vec::new();
        let mut n = 0;
        loop {
            let mut progressed = false;
            while let Some(seg) = tx(a, now) {
                progressed = true;
                if !lose(n) {
                    ev_b.extend(rx(b, &seg, now).unwrap());
                }
                n += 1;
            }
            while let Some(seg) = tx(b, now) {
                progressed = true;
                if !lose(n) {
                    ev_a.extend(rx(a, &seg, now).unwrap());
                }
                n += 1;
            }
            if !progressed {
                return (ev_a, ev_b);
            }
        }
    }

    #[test]
    fn handshake_then_messages_in_order() {
        let mut a = Endpoint::connect(ChannelConfig::default());
        let mut b = Endpoint::listen(ChannelConfig::default());
        a.send(b"one".to_vec());
        a.send(b"two".to_vec());
        a.send(b"three".to_vec());
        let (ev_a, ev_b) = pump(&mut a, &mut b, t(0), |_| false);
        assert!(ev_a.contains(&Ev::Connected));
        assert!(ev_b.contains(&Ev::Connected));
        let msgs: Vec<&[u8]> = ev_b
            .iter()
            .filter_map(|e| match e {
                Ev::Delivered(m) => Some(m.as_slice()),
                _ => None,
            })
            .collect();
        assert_eq!(
            msgs,
            vec![b"one".as_slice(), b"two".as_slice(), b"three".as_slice()]
        );
        assert_eq!(a.backlog(), 0, "all segments acked");
        assert_eq!(a.state(), ChannelState::Established);
        assert_eq!(b.state(), ChannelState::Established);
    }

    #[test]
    fn loss_is_repaired_by_retransmission() {
        let cfg = ChannelConfig {
            rto: SimDuration::from_millis(100),
            window: 4,
        };
        let mut a = Endpoint::connect(cfg);
        let mut b = Endpoint::listen(cfg);
        for i in 0..10u8 {
            a.send(vec![i]);
        }
        // Lose every third segment on the first exchange.
        let (_, ev_b0) = pump(&mut a, &mut b, t(0), |n| n % 3 == 0);
        // Advance past RTO repeatedly until everything is delivered.
        let mut delivered: Vec<u8> = ev_b0
            .iter()
            .filter_map(|e| match e {
                Ev::Delivered(m) => Some(m[0]),
                _ => None,
            })
            .collect();
        for round in 1..20 {
            let (_, ev_b) = pump(&mut a, &mut b, t(round * 150), |_| false);
            delivered.extend(ev_b.iter().filter_map(|e| match e {
                Ev::Delivered(m) => Some(m[0]),
                _ => None,
            }));
            if delivered.len() == 10 {
                break;
            }
        }
        assert_eq!(
            delivered,
            (0..10).collect::<Vec<u8>>(),
            "in order despite loss"
        );
        assert!(a.stats().retransmits > 0);
        assert_eq!(a.backlog(), 0);
    }

    #[test]
    fn duplicates_are_dropped_and_reacked() {
        let mut a = Endpoint::connect(ChannelConfig::default());
        let mut b = Endpoint::listen(ChannelConfig::default());
        a.send(b"msg".to_vec());
        // Capture the data segment and deliver it twice.
        let syn = tx(&mut a, t(0)).unwrap();
        rx(&mut b, &syn, t(0)).unwrap();
        let synack = tx(&mut b, t(0)).unwrap();
        rx(&mut a, &synack, t(0)).unwrap();
        let data = tx(&mut a, t(0)).unwrap();
        let ev1 = rx(&mut b, &data, t(0)).unwrap();
        let ev2 = rx(&mut b, &data, t(0)).unwrap();
        assert_eq!(
            ev1.iter().filter(|e| matches!(e, Ev::Delivered(_))).count(),
            1
        );
        assert!(ev2.iter().all(|e| !matches!(e, Ev::Delivered(_))));
        assert_eq!(b.stats().duplicates_dropped, 1);
    }

    #[test]
    fn out_of_order_reassembled() {
        let cfg = ChannelConfig {
            rto: SimDuration::from_millis(100),
            window: 8,
        };
        let mut a = Endpoint::connect(cfg);
        let mut b = Endpoint::listen(cfg);
        // Establish first.
        pump(&mut a, &mut b, t(0), |_| false);
        a.send(b"A".to_vec());
        a.send(b"B".to_vec());
        let s1 = tx(&mut a, t(1)).unwrap();
        let s2 = tx(&mut a, t(1)).unwrap();
        // Deliver in reverse order.
        let ev_first = rx(&mut b, &s2, t(2)).unwrap();
        assert!(ev_first.iter().all(|e| !matches!(e, Ev::Delivered(_))));
        let ev_second = rx(&mut b, &s1, t(2)).unwrap();
        let msgs: Vec<&[u8]> = ev_second
            .iter()
            .filter_map(|e| match e {
                Ev::Delivered(m) => Some(m.as_slice()),
                _ => None,
            })
            .collect();
        assert_eq!(msgs, vec![b"A".as_slice(), b"B".as_slice()]);
    }

    #[test]
    fn window_limits_in_flight() {
        let cfg = ChannelConfig {
            rto: SimDuration::from_millis(100),
            window: 2,
        };
        let mut a = Endpoint::connect(cfg);
        let mut b = Endpoint::listen(cfg);
        pump(&mut a, &mut b, t(0), |_| false);
        for i in 0..5u8 {
            a.send(vec![i]);
        }
        // Without ACKs coming back, only `window` data segments emerge.
        let mut sent = 0;
        while let Some(_seg) = tx(&mut a, t(1)) {
            sent += 1;
            assert!(sent <= 2, "window must cap in-flight segments");
        }
        assert_eq!(sent, 2);
    }

    #[test]
    fn fin_delivered_after_data() {
        let mut a = Endpoint::connect(ChannelConfig::default());
        let mut b = Endpoint::listen(ChannelConfig::default());
        a.send(b"last-words".to_vec());
        a.close();
        let (_, ev_b) = pump(&mut a, &mut b, t(0), |_| false);
        let kinds: Vec<u8> = ev_b
            .iter()
            .map(|e| match e {
                Ev::Connected => 0,
                Ev::Delivered(_) => 1,
                Ev::PeerClosed => 2,
            })
            .collect();
        assert_eq!(kinds, vec![0, 1, 2]);
        assert_eq!(b.state(), ChannelState::Closed);
    }

    #[test]
    fn next_wakeup_tracks_oldest_unacked() {
        let cfg = ChannelConfig {
            rto: SimDuration::from_millis(100),
            window: 8,
        };
        let mut a = Endpoint::connect(cfg);
        assert_eq!(a.next_wakeup(), None, "nothing sent yet");
        let _syn = tx(&mut a, t(5)).unwrap();
        assert_eq!(a.next_wakeup(), Some(t(105)));
    }

    #[test]
    fn malformed_segments_rejected() {
        let mut a = Endpoint::listen(ChannelConfig::default());
        assert!(rx(&mut a, &[0u8; 5], t(0)).is_err());
        // Length field larger than buffer.
        let mut seg = segment(FLAG_DATA, 0, b"xy");
        seg[18] = 200;
        assert!(rx(&mut a, &seg, t(0)).is_err());
    }

    #[test]
    fn reconnect_against_stale_endpoint_restarts_cleanly() {
        // Establish and exchange data, then the client resets (fresh
        // connect endpoint, the BGP transport-restart path) while the
        // server still holds the old connection.
        let mut a = Endpoint::connect(ChannelConfig::default());
        let mut b = Endpoint::listen(ChannelConfig::default());
        a.send(b"old-epoch".to_vec());
        pump(&mut a, &mut b, t(0), |_| false);
        assert_eq!(b.state(), ChannelState::Established);

        // A stale pure ACK from the old server must NOT complete a new
        // opener's handshake (the old failure mode: Connected fired,
        // then every new-epoch message died as a "duplicate").
        let mut a2 = Endpoint::connect(ChannelConfig::default());
        let _syn = tx(&mut a2, t(1000)).unwrap();
        let stale_ack = segment(FLAG_ACK, 42, &[]);
        let ev = rx(&mut a2, &stale_ack, t(1001)).unwrap();
        assert!(
            !ev.contains(&Ev::Connected),
            "pure ACK must not complete the open"
        );
        assert_eq!(a2.state(), ChannelState::SynSent);

        // The new SYN reaching the stale established server kills the
        // old connection (PeerClosed) instead of being "re-ACKed".
        let syn = tx(&mut a2, t(1200)).unwrap();
        let ev = rx(&mut b, &syn, t(1201)).unwrap();
        assert_eq!(ev, vec![Ev::PeerClosed]);
        assert_eq!(b.state(), ChannelState::Closed);

        // The server's owner resets to a fresh listener; the opener's
        // SYN retransmission then completes a clean new connection that
        // really delivers data.
        let mut b2 = Endpoint::listen(ChannelConfig::default());
        a2.send(b"new-epoch".to_vec());
        let (ev_a2, ev_b2) = pump(&mut a2, &mut b2, t(1500), |_| false);
        assert!(ev_a2.contains(&Ev::Connected));
        assert!(ev_b2.contains(&Ev::Connected));
        assert!(ev_b2.contains(&Ev::Delivered(b"new-epoch".to_vec())));
    }

    #[test]
    fn take_buffer_recycles_acked_buffers() {
        let mut a = Endpoint::connect(ChannelConfig::default());
        let mut b = Endpoint::listen(ChannelConfig::default());
        pump(&mut a, &mut b, t(0), |_| false);
        // First batch populates the pool on ACK; the second drains it.
        for round in 0..2u64 {
            for i in 0..5u8 {
                let mut buf = a.take_buffer();
                buf.extend_from_slice(&[i, i, i]);
                a.send(buf);
            }
            let (_, ev_b) = pump(&mut a, &mut b, t(1 + round), |_| false);
            let got: Vec<u8> = ev_b
                .iter()
                .filter_map(|e| match e {
                    Ev::Delivered(m) => Some(m[0]),
                    _ => None,
                })
                .collect();
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
        }
        assert_eq!(a.backlog(), 0);
        assert_eq!(a.free.len(), 5, "acked buffers returned to the pool");
    }

    #[test]
    fn heavy_loss_eventually_delivers_everything() {
        // Deterministic pseudo-random 40% loss; the channel must still
        // deliver all 50 messages in order.
        let cfg = ChannelConfig {
            rto: SimDuration::from_millis(50),
            window: 8,
        };
        let mut a = Endpoint::connect(cfg);
        let mut b = Endpoint::listen(cfg);
        for i in 0..50u8 {
            a.send(vec![i]);
        }
        let mut rng_state = 12345u64;
        let mut delivered = Vec::new();
        for round in 0..200u64 {
            let (_, ev_b) = pump(&mut a, &mut b, t(round * 60), |_| {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (rng_state >> 33) % 10 < 4
            });
            delivered.extend(ev_b.iter().filter_map(|e| match e {
                Ev::Delivered(m) => Some(m[0]),
                _ => None,
            }));
            if delivered.len() == 50 {
                break;
            }
        }
        assert_eq!(delivered, (0..50).collect::<Vec<u8>>());
    }
}
