//! Point-to-point links.
//!
//! A link connects one port on each of two nodes and models:
//!
//! * propagation **latency** (fixed),
//! * optional **bandwidth**: serialization delay plus FIFO queueing per
//!   direction (`busy_until` bookkeeping), charged per byte without a
//!   division (see [`Link::schedule_arrival`]),
//! * fault injection: probabilistic **loss** and byte **corruption**
//!   (the corrupted frame is still delivered — receivers must detect it
//!   via checksums, which is exactly what the wire formats do).
//!
//! Fault draws come from a counted splitmix64 stream **per link
//! direction**, seeded from `(world seed, link index, direction)`. Which
//! frames are hit is therefore a pure function of the seed and the
//! per-direction emission order — independent of how emissions on
//! *other* links interleave globally, like the kernel's origin keys.

use crate::node::{NodeId, PortId};
use sc_net::{splitmix64, Frame, SimDuration, SimTime};

/// Index of a link within a [`crate::World`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub usize);

/// Link characteristics.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Bits per second; `None` = infinite (no serialization delay).
    pub bandwidth_bps: Option<u64>,
    /// Probability in `[0,1]` that a frame is silently dropped.
    pub loss: f64,
    /// Probability in `[0,1]` that one byte of a frame is flipped.
    pub corrupt: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            latency: SimDuration::from_micros(10), // LAN-scale
            bandwidth_bps: None,
            loss: 0.0,
            corrupt: 0.0,
        }
    }
}

impl LinkParams {
    /// A LAN link with the given latency and otherwise default behavior.
    pub fn with_latency(latency: SimDuration) -> LinkParams {
        LinkParams {
            latency,
            ..LinkParams::default()
        }
    }

    /// 1 Gb/s Ethernet (the paper's lab links).
    pub fn gigabit(latency: SimDuration) -> LinkParams {
        LinkParams {
            latency,
            bandwidth_bps: Some(1_000_000_000),
            loss: 0.0,
            corrupt: 0.0,
        }
    }

    /// Serialization delay for a frame of `len` bytes.
    pub fn serialization_delay(&self, len: usize) -> SimDuration {
        match self.bandwidth_bps {
            None => SimDuration::ZERO,
            Some(bps) => {
                // ns = bytes * 8 * 1e9 / bps, computed without overflow
                // for realistic frame sizes.
                let bits = (len as u64) * 8;
                SimDuration::from_nanos(bits.saturating_mul(1_000_000_000) / bps.max(1))
            }
        }
    }
}

/// One endpoint of a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Endpoint {
    pub node: NodeId,
    pub port: PortId,
}

/// Bits per second of 1 ns per byte: a bandwidth that divides it costs a
/// whole number of nanoseconds per byte.
const BYTE_NS_BPS: u64 = 8 * 1_000_000_000;

/// The longest frame whose bit-nanosecond product `len * 8 * 10^9` fits in
/// a `u64`: up to here [`LinkParams::serialization_delay`] does not
/// saturate, so a whole per-byte cost reproduces it exactly.
const MAX_PER_BYTE_LEN: u64 = u64::MAX / BYTE_NS_BPS;

/// Map a 64-bit draw to a uniform `f64` in `[0, 1)`.
#[inline]
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Internal link state.
#[derive(Debug)]
pub(crate) struct Link {
    pub a: Endpoint,
    pub b: Endpoint,
    /// Set through [`Link::set_params`], which keeps `ns_per_byte` in step.
    params: LinkParams,
    /// `params`' serialization cost per byte when it is a whole number of
    /// nanoseconds (0 without a bandwidth), else `None`.
    ns_per_byte: Option<u64>,
    pub up: bool,
    /// Per-direction transmitter-busy horizon: [a->b, b->a].
    busy_until: [SimTime; 2],
    /// Per-direction counted fault-stream state (see the module docs).
    fault_state: [u64; 2],
}

impl Link {
    pub(crate) fn new(a: Endpoint, b: Endpoint, params: LinkParams, fault_seed: u64) -> Link {
        // Decorrelate the two directions: run each sub-seed through one
        // mix round so nearby link indices don't yield nearby streams.
        let mut s0 = fault_seed;
        let mut s1 = fault_seed ^ 0xD1B5_4A32_D192_ED03;
        splitmix64(&mut s0);
        splitmix64(&mut s1);
        Link {
            a,
            b,
            params,
            ns_per_byte: ns_per_byte(params.bandwidth_bps),
            up: true,
            busy_until: [SimTime::ZERO; 2],
            fault_state: [s0, s1],
        }
    }

    pub(crate) fn params(&self) -> LinkParams {
        self.params
    }

    /// Replace the parameters and recompute the per-byte cost from the
    /// new bandwidth; the next [`Link::schedule_arrival`] charges it.
    pub(crate) fn set_params(&mut self, params: LinkParams) {
        self.params = params;
        self.ns_per_byte = ns_per_byte(params.bandwidth_bps);
    }

    /// Run one frame through this direction's seeded fault stream just
    /// before it enters the wire. Returns `None` when the frame is lost,
    /// otherwise `Some(corrupted)` — on corruption one bit has been
    /// flipped in place (copy-on-write, so shared holders are safe).
    pub(crate) fn apply_faults(&mut self, dir: usize, frame: &mut Frame) -> Option<bool> {
        if self.params.loss > 0.0
            && unit_f64(splitmix64(&mut self.fault_state[dir])) < self.params.loss
        {
            return None;
        }
        let mut corrupted = false;
        if self.params.corrupt > 0.0
            && unit_f64(splitmix64(&mut self.fault_state[dir])) < self.params.corrupt
            && !frame.is_empty()
        {
            let idx = (splitmix64(&mut self.fault_state[dir]) % frame.len() as u64) as usize;
            let bit = (splitmix64(&mut self.fault_state[dir]) % 8) as u32;
            frame.make_mut()[idx] ^= 1u8 << bit;
            corrupted = true;
        }
        Some(corrupted)
    }

    /// The endpoint receiving what direction `dir` carries (0: a -> b).
    #[inline]
    pub(crate) fn receiver(&self, dir: usize) -> Endpoint {
        if dir == 0 {
            self.b
        } else {
            self.a
        }
    }

    /// [`LinkParams::serialization_delay`] of the current parameters,
    /// without its division when the bandwidth divides 8·10⁹ b/s (every
    /// link the builders make: 1 Gb/s is 8 ns a byte). Exact: with
    /// `bps · k = 8·10⁹`, `len · 8 · 10⁹ / bps = len · k` for every `len`
    /// whose product does not saturate, and longer frames take the
    /// division.
    #[inline]
    pub(crate) fn serialization_delay(&self, len: usize) -> SimDuration {
        match self.ns_per_byte {
            Some(k) if len as u64 <= MAX_PER_BYTE_LEN => SimDuration::from_nanos(len as u64 * k),
            _ => self.params.serialization_delay(len),
        }
    }

    /// Compute the arrival time of a frame of `len` bytes entering the
    /// link in direction `dir` at time `now`, updating queue occupancy.
    /// Serialization is charged by [`Link::serialization_delay`]: `len`
    /// times the whole nanoseconds per byte that [`Link::set_params`]
    /// last computed, which equals `len · 8 · 10⁹ / bps` exactly because
    /// that cost exists only when `bps` divides 8·10⁹; other bandwidths
    /// and saturating lengths take the division.
    pub(crate) fn schedule_arrival(&mut self, dir: usize, now: SimTime, len: usize) -> SimTime {
        let start = if self.busy_until[dir] > now {
            self.busy_until[dir]
        } else {
            now
        };
        let done = start + self.serialization_delay(len);
        self.busy_until[dir] = done;
        done + self.params.latency
    }
}

/// The whole nanoseconds a byte takes at `bandwidth_bps`, if a whole
/// number: `Some(0)` without a bandwidth, `None` when the bandwidth does
/// not divide 8·10⁹ b/s. A zero bandwidth is 1 b/s, as in
/// [`LinkParams::serialization_delay`].
fn ns_per_byte(bandwidth_bps: Option<u64>) -> Option<u64> {
    match bandwidth_bps {
        None => Some(0),
        Some(bps) => {
            let bps = bps.max(1);
            BYTE_NS_BPS.is_multiple_of(bps).then(|| BYTE_NS_BPS / bps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay_gigabit() {
        let p = LinkParams::gigabit(SimDuration::ZERO);
        // 64-byte frame on 1 Gb/s = 512 ns.
        assert_eq!(p.serialization_delay(64), SimDuration::from_nanos(512));
        // 1500 bytes = 12 us.
        assert_eq!(p.serialization_delay(1500), SimDuration::from_nanos(12_000));
        // Infinite bandwidth: zero.
        assert_eq!(
            LinkParams::default().serialization_delay(1500),
            SimDuration::ZERO
        );
    }

    /// The per-byte cost equals the division for every frame length up
    /// to a jumbo frame and on both sides of where `len · 8 · 10⁹`
    /// saturates, at bandwidths that take the per-byte path (none,
    /// 10 Mb/s to 1 Gb/s) and ones that fall back (3 b/s, 10 Gb/s,
    /// `u64::MAX`).
    #[test]
    fn per_byte_serialization_is_exact() {
        let end = Endpoint {
            node: NodeId(0),
            port: PortId(0),
        };
        let mut link = Link::new(end, end, LinkParams::default(), 0);
        let edge = MAX_PER_BYTE_LEN as usize;
        let lens = (0..=9_216).chain(edge - 2..=edge + 2).chain([1 << 40]);
        let bandwidths = [
            (None, Some(0)),
            (Some(3), None),
            (Some(10_000_000), Some(800)),
            (Some(100_000_000), Some(80)),
            (Some(1_000_000_000), Some(8)),
            (Some(10_000_000_000), None),
            (Some(u64::MAX), None),
        ];
        for (bandwidth_bps, per_byte) in bandwidths {
            let params = LinkParams {
                bandwidth_bps,
                ..LinkParams::default()
            };
            link.set_params(params);
            assert_eq!(link.ns_per_byte, per_byte, "{bandwidth_bps:?}");
            for len in lens.clone() {
                assert_eq!(
                    link.serialization_delay(len),
                    params.serialization_delay(len),
                    "{len} B at {bandwidth_bps:?} b/s"
                );
            }
        }
    }

    #[test]
    fn fifo_queueing_accumulates() {
        let a = Endpoint {
            node: NodeId(0),
            port: PortId(0),
        };
        let b = Endpoint {
            node: NodeId(1),
            port: PortId(0),
        };
        let mut link = Link::new(a, b, LinkParams::gigabit(SimDuration::from_micros(10)), 0);
        let now = SimTime::from_micros(100);
        // Two back-to-back 64B frames: second starts when first finishes.
        let t1 = link.schedule_arrival(0, now, 64);
        let t2 = link.schedule_arrival(0, now, 64);
        assert_eq!(
            t1,
            now + SimDuration::from_nanos(512) + SimDuration::from_micros(10)
        );
        assert_eq!(t2, t1 + SimDuration::from_nanos(512));
        // Opposite direction is independent (full duplex).
        let t3 = link.schedule_arrival(1, now, 64);
        assert_eq!(t3, t1);
    }

    #[test]
    fn direction_resolution() {
        let a = Endpoint {
            node: NodeId(0),
            port: PortId(3),
        };
        let b = Endpoint {
            node: NodeId(7),
            port: PortId(1),
        };
        let link = Link::new(a, b, LinkParams::default(), 0);
        assert_eq!(link.receiver(0), b);
        assert_eq!(link.receiver(1), a);
    }
}
