//! Timed replay: compile an MRT stream into pre-scheduled world events.
//!
//! A `BGP4MP(_ET)` update stream records *when* each message arrived at
//! the collector — the inter-arrival bursts and withdraw/re-announce
//! interleavings that stress an event kernel in ways a synthetic table
//! load cannot. [`ReplaySchedule::compile`] turns such a stream into a
//! list of `(offset, peering, UPDATE)` events relative to the first
//! record, optionally warped by a [`TimeScale`]; the consumer schedules
//! each event into its simulator (`sc-scenarios` injects them on
//! provider routers through the world's event queue).
//!
//! [`RibSnapshot`] is the companion loader for `TABLE_DUMP_V2` dumps:
//! per-peer route lists that seed the providers' tables before the
//! timed stream plays.

use crate::records::{MrtError, MrtReader, MrtRecord, PeerTableEntry, RibEntryRecord};
use sc_bgp::attrs::RouteAttrs;
use sc_bgp::msg::{BgpMessage, UpdateMsg};
use sc_net::{Ipv4Prefix, SimDuration};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;
use std::sync::Arc;

/// A rational time-warp factor for replay: recorded inter-arrival gaps
/// are multiplied by `num/den`. `1` preserves recorded timing,
/// `0.1` replays ten times faster (gaps compressed), `2` at half speed
/// (gaps stretched). Held as a decimal rational — never a float — so
/// scaled offsets are exact and replay stays bit-deterministic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimeScale {
    num: u32,
    den: u32,
}

impl TimeScale {
    /// Recorded timing, unwarped.
    pub const REAL: TimeScale = TimeScale { num: 1, den: 1 };

    pub fn new(num: u32, den: u32) -> TimeScale {
        assert!(num > 0 && den > 0, "time scale must be positive");
        TimeScale { num, den }
    }

    /// Warp a recorded gap. Exact integer arithmetic (128-bit
    /// intermediate), truncating to whole nanoseconds.
    pub fn apply(self, d: SimDuration) -> SimDuration {
        let ns = d.as_nanos() as u128 * self.num as u128 / self.den as u128;
        SimDuration::from_nanos(ns as u64)
    }
}

impl Default for TimeScale {
    fn default() -> TimeScale {
        TimeScale::REAL
    }
}

impl fmt::Display for TimeScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl FromStr for TimeScale {
    type Err = String;

    /// Parse `"1"`, `"0.25"`, `"2.5"` (decimal, ≤ 9 fractional digits)
    /// or an explicit `"num/den"` rational.
    fn from_str(s: &str) -> Result<TimeScale, String> {
        let bad = |_| format!("bad time scale {s:?}");
        if let Some((n, d)) = s.split_once('/') {
            let (num, den) = (n.parse().map_err(bad)?, d.parse().map_err(bad)?);
            if num == 0 || den == 0 {
                return Err(format!("time scale {s:?} must be positive"));
            }
            return Ok(TimeScale { num, den });
        }
        let (int, frac) = s.split_once('.').unwrap_or((s, ""));
        if frac.len() > 9 || (int.is_empty() && frac.is_empty()) {
            return Err(format!("bad time scale {s:?}"));
        }
        let int: u32 = if int.is_empty() {
            0
        } else {
            int.parse().map_err(bad)?
        };
        let fnum: u32 = if frac.is_empty() {
            0
        } else {
            frac.parse().map_err(bad)?
        };
        let den = 10u64.pow(frac.len() as u32);
        let num = int as u64 * den + fnum as u64;
        if num == 0 {
            return Err(format!("time scale {s:?} must be positive"));
        }
        let num = u32::try_from(num).map_err(|_| format!("time scale {s:?} overflows"))?;
        Ok(TimeScale {
            num,
            den: den as u32,
        })
    }
}

/// One replayable event: an UPDATE to inject at `at` (offset from the
/// replay origin, already time-scaled) as the recorded peer.
#[derive(Clone, PartialEq, Debug)]
pub struct ReplayEvent {
    pub at: SimDuration,
    pub peer_ip: Ipv4Addr,
    pub peer_as: u16,
    pub update: UpdateMsg,
}

/// A compiled, time-scaled schedule of recorded UPDATE events.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ReplaySchedule {
    /// Events in stream order; offsets are non-decreasing.
    pub events: Vec<ReplayEvent>,
    /// Offset of the last event (zero for an empty stream).
    pub end: SimDuration,
}

impl ReplaySchedule {
    /// Compile a `BGP4MP(_ET)` stream. Non-UPDATE records (state
    /// changes, keepalives, RIB/peer-table records, unknown types) are
    /// skipped; a non-monotonic timestamp clamps to the previous
    /// event's offset (stream order is preserved either way).
    pub fn compile(bytes: &[u8], scale: TimeScale) -> Result<ReplaySchedule, MrtError> {
        let mut events = Vec::new();
        let mut origin_us: Option<u64> = None;
        let mut prev = SimDuration::ZERO;
        for raw in MrtReader::new(bytes) {
            let raw = raw?;
            let MrtRecord::Message(m) = MrtRecord::decode(&raw)? else {
                continue;
            };
            let BgpMessage::Update(update) = m.msg else {
                continue;
            };
            let t_us = raw.ts_secs as u64 * 1_000_000 + raw.micros as u64;
            let origin = *origin_us.get_or_insert(t_us);
            let at = match t_us.checked_sub(origin) {
                Some(delta_us) => scale.apply(SimDuration::from_micros(delta_us)).max(prev),
                None => prev, // clock went backwards: keep stream order
            };
            prev = at;
            events.push(ReplayEvent {
                at,
                peer_ip: m.peer_ip,
                peer_as: m.peer_as,
                update,
            });
        }
        Ok(ReplaySchedule {
            end: events.last().map(|e| e.at).unwrap_or(SimDuration::ZERO),
            events,
        })
    }

    /// The distinct recorded peers, in order of first appearance — the
    /// consumer's mapping target (peer k → provider k).
    pub fn peers(&self) -> Vec<(Ipv4Addr, u16)> {
        let mut out: Vec<(Ipv4Addr, u16)> = Vec::new();
        for e in &self.events {
            if !out.iter().any(|(ip, _)| *ip == e.peer_ip) {
                out.push((e.peer_ip, e.peer_as));
            }
        }
        out
    }

    /// Burst onsets: the first event, plus every event separated from
    /// its predecessor by more than `quiet` of silence. These are the
    /// replay's convergence epochs — each gets its own measurement
    /// window (`sc_lab::harness::plan_cycle_measurement`).
    pub fn epochs(&self, quiet: SimDuration) -> Vec<SimDuration> {
        let mut out = Vec::new();
        let mut prev: Option<SimDuration> = None;
        for e in &self.events {
            match prev {
                None => out.push(e.at),
                Some(p) if e.at.saturating_sub(p) > quiet => out.push(e.at),
                _ => {}
            }
            prev = Some(e.at);
        }
        out.dedup();
        out
    }

    /// Total announced + withdrawn prefix count (work volume, for
    /// reports).
    pub fn prefix_events(&self) -> usize {
        self.events
            .iter()
            .map(|e| e.update.nlri.len() + e.update.withdrawn.len())
            .sum()
    }

    /// THE peer→provider mapping policy, shared by every consumer:
    /// recorded peer `k` (its position in `recorded_peers`, usually the
    /// snapshot's peer table) injects on provider `k % providers`;
    /// peers absent from the table fall back to `primary`. Announcement
    /// next-hops are rewritten to the target provider's address with
    /// run-memoized Arc sharing — the same rewrite the snapshot-derived
    /// feeds get, so withdrawals hit the routes their peer actually
    /// announced. Yields `(provider_index, offset, update)` in stream
    /// order, ready to schedule.
    pub fn map_to_providers(
        &self,
        recorded_peers: &[Ipv4Addr],
        provider_ips: &[Ipv4Addr],
        primary: usize,
    ) -> Vec<(usize, SimDuration, UpdateMsg)> {
        let m = provider_ips.len();
        assert!(m > 0 && primary < m);
        let mut rewriters: Vec<NextHopRewriter> = provider_ips
            .iter()
            .map(|ip| NextHopRewriter::new(*ip))
            .collect();
        self.events
            .iter()
            .map(|e| {
                let i = recorded_peers
                    .iter()
                    .position(|ip| *ip == e.peer_ip)
                    .map(|k| k % m)
                    .unwrap_or(primary);
                (i, e.at, rewriters[i].rewrite_update(&e.update))
            })
            .collect()
    }
}

/// A loaded `TABLE_DUMP_V2` snapshot: the peer table plus every RIB
/// record, ready to be carved into per-peer feeds.
#[derive(Clone, PartialEq, Debug)]
pub struct RibSnapshot {
    pub collector_id: Ipv4Addr,
    pub view: String,
    pub peers: Vec<PeerTableEntry>,
    /// RIB records in stream order (RIS `bview` dumps are
    /// prefix-sorted; [`RibSnapshot::prefixes`] sorts defensively).
    pub routes: Vec<RibEntryRecord>,
}

impl RibSnapshot {
    /// Load a snapshot. The `PEER_INDEX_TABLE` must precede the first
    /// RIB record (RFC 6396 §4.3.1); every entry's peer index must
    /// resolve.
    pub fn load(bytes: &[u8]) -> Result<RibSnapshot, MrtError> {
        let mut table: Option<(Ipv4Addr, String, Vec<PeerTableEntry>)> = None;
        let mut routes = Vec::new();
        for raw in MrtReader::new(bytes) {
            let raw = raw?;
            match MrtRecord::decode(&raw)? {
                MrtRecord::PeerIndex(t) => {
                    if table.is_some() {
                        return Err(MrtError::Bad("duplicate peer index table"));
                    }
                    table = Some((t.collector_id, t.view, t.peers));
                }
                MrtRecord::RibIpv4(r) => {
                    let Some((_, _, peers)) = &table else {
                        return Err(MrtError::Bad("RIB record before peer index table"));
                    };
                    if r.entries
                        .iter()
                        .any(|e| e.peer_index as usize >= peers.len())
                    {
                        return Err(MrtError::Bad("RIB entry peer index out of range"));
                    }
                    routes.push(r);
                }
                _ => {}
            }
        }
        let (collector_id, view, peers) = table.ok_or(MrtError::Bad("missing peer index table"))?;
        Ok(RibSnapshot {
            collector_id,
            view,
            peers,
            routes,
        })
    }

    /// The distinct prefixes of the snapshot, sorted ascending — the
    /// replay analogue of `sc_routegen::prefix_universe`.
    pub fn prefixes(&self) -> Vec<Ipv4Prefix> {
        let mut out: Vec<Ipv4Prefix> = self.routes.iter().map(|r| r.prefix).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Peer `idx`'s routes, in stream order: `(prefix, attrs)` for
    /// every RIB record carrying an entry from that peer.
    pub fn routes_for_peer(&self, idx: u16) -> Vec<(Ipv4Prefix, Arc<RouteAttrs>)> {
        self.routes
            .iter()
            .filter_map(|r| {
                r.entries
                    .iter()
                    .find(|e| e.peer_index == idx)
                    .map(|e| (r.prefix, e.attrs.clone()))
            })
            .collect()
    }
}

/// Streaming next-hop rewriter: recorded routes carry the collector
/// peer's next hop, but a simulated provider must announce *itself* —
/// the replay analogue of loading RIS routes onto R2/R3. Rewrites are
/// memoized per consecutive attribute run, so the Arc-sharing a real
/// table exhibits (and NLRI packing exploits) survives the rewrite.
pub struct NextHopRewriter {
    nh: Ipv4Addr,
    memo: Option<(Arc<RouteAttrs>, Arc<RouteAttrs>)>,
}

impl NextHopRewriter {
    pub fn new(nh: Ipv4Addr) -> NextHopRewriter {
        NextHopRewriter { nh, memo: None }
    }

    /// The rewritten attribute set for `attrs` (shared with the
    /// previous call when the source run continues).
    pub fn rewrite(&mut self, attrs: &Arc<RouteAttrs>) -> Arc<RouteAttrs> {
        match &self.memo {
            Some((src, out)) if **src == **attrs => out.clone(),
            _ => {
                let out = Arc::new(attrs.with_next_hop(self.nh));
                self.memo = Some((attrs.clone(), out.clone()));
                out
            }
        }
    }

    /// Rewrite one UPDATE (withdrawals pass through untouched).
    pub fn rewrite_update(&mut self, update: &UpdateMsg) -> UpdateMsg {
        let mut out = update.clone();
        if let Some(a) = &out.attrs {
            out.attrs = Some(self.rewrite(a));
        }
        out
    }

    /// Rewrite a whole route list (e.g. a snapshot peer's table before
    /// [`pack_feed`]).
    pub fn rewrite_routes(
        &mut self,
        routes: &[(Ipv4Prefix, Arc<RouteAttrs>)],
    ) -> Vec<(Ipv4Prefix, Arc<RouteAttrs>)> {
        routes.iter().map(|(p, a)| (*p, self.rewrite(a))).collect()
    }
}

/// Pack a route list into announcement UPDATEs the way a real speaker
/// (and `sc_routegen::generate_feed_for`) does: consecutive routes
/// sharing an attribute set ride one message, capped at
/// `max_nlri_per_update` NLRI and size-split to the 4096-byte limit.
pub fn pack_feed(
    routes: &[(Ipv4Prefix, Arc<RouteAttrs>)],
    max_nlri_per_update: usize,
) -> Vec<UpdateMsg> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < routes.len() {
        let attrs = &routes[i].1;
        let mut j = i + 1;
        while j < routes.len() && routes[j].1 == *attrs {
            j += 1;
        }
        let nlri: Vec<Ipv4Prefix> = routes[i..j].iter().map(|(p, _)| *p).collect();
        for chunk in nlri.chunks(max_nlri_per_update.max(1)) {
            UpdateMsg::announce(attrs.clone(), chunk.to_vec()).split_to_fit(&mut out);
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{Bgp4mpMessage, MrtWriter, RibEntry};
    use sc_bgp::attrs::AsPath;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn attrs(nh: u8) -> Arc<RouteAttrs> {
        RouteAttrs::ebgp(AsPath::sequence(vec![65002]), Ipv4Addr::new(10, 0, 0, nh)).shared()
    }

    fn msg_at(w: &mut MrtWriter, secs: u32, us: u32, update: UpdateMsg) {
        w.bgp4mp_message(
            secs,
            Some(us),
            &Bgp4mpMessage {
                peer_as: 65002,
                local_as: 65001,
                peer_ip: Ipv4Addr::new(10, 0, 0, 2),
                local_ip: Ipv4Addr::new(10, 0, 0, 1),
                msg: BgpMessage::Update(update),
            },
        );
    }

    #[test]
    fn time_scale_parses_and_applies() {
        let half: TimeScale = "0.5".parse().unwrap();
        assert_eq!(half, TimeScale::new(5, 10));
        assert_eq!(
            half.apply(SimDuration::from_micros(100)),
            SimDuration::from_micros(50)
        );
        let x2: TimeScale = "2".parse().unwrap();
        assert_eq!(
            x2.apply(SimDuration::from_millis(3)),
            SimDuration::from_millis(6)
        );
        let r: TimeScale = "3/7".parse().unwrap();
        assert_eq!(
            r.apply(SimDuration::from_nanos(7_000)),
            SimDuration::from_nanos(3_000)
        );
        assert_eq!(
            "1.25".parse::<TimeScale>().unwrap(),
            TimeScale::new(125, 100)
        );
        assert!("0".parse::<TimeScale>().is_err());
        assert!("0.0".parse::<TimeScale>().is_err());
        assert!("".parse::<TimeScale>().is_err());
        assert!("-1".parse::<TimeScale>().is_err());
        assert!("1.0000000001".parse::<TimeScale>().is_err());
        assert_eq!(TimeScale::REAL.to_string(), "1");
        assert_eq!(TimeScale::new(1, 4).to_string(), "1/4");
    }

    #[test]
    fn compile_preserves_inter_arrival_timing() {
        let mut w = MrtWriter::new();
        msg_at(
            &mut w,
            100,
            0,
            UpdateMsg::announce(attrs(2), vec![p("1.0.0.0/24")]),
        );
        msg_at(&mut w, 100, 400, UpdateMsg::withdraw(vec![p("1.0.0.0/24")]));
        msg_at(
            &mut w,
            102,
            100,
            UpdateMsg::announce(attrs(2), vec![p("1.0.0.0/24")]),
        );
        let bytes = w.into_bytes();

        let s = ReplaySchedule::compile(&bytes, TimeScale::REAL).unwrap();
        assert_eq!(s.events.len(), 3);
        assert_eq!(s.events[0].at, SimDuration::ZERO);
        assert_eq!(s.events[1].at, SimDuration::from_micros(400));
        assert_eq!(s.events[2].at, SimDuration::from_micros(2_000_100));
        assert_eq!(s.end, SimDuration::from_micros(2_000_100));
        assert_eq!(s.prefix_events(), 3);
        assert_eq!(s.peers(), vec![(Ipv4Addr::new(10, 0, 0, 2), 65002)]);

        // Warp 10x faster.
        let fast = ReplaySchedule::compile(&bytes, "0.1".parse().unwrap()).unwrap();
        assert_eq!(fast.events[1].at, SimDuration::from_micros(40));
        assert_eq!(fast.events[2].at, SimDuration::from_micros(200_010));
    }

    #[test]
    fn non_monotonic_timestamps_clamp() {
        let mut w = MrtWriter::new();
        msg_at(
            &mut w,
            100,
            500_000,
            UpdateMsg::withdraw(vec![p("1.0.0.0/24")]),
        );
        msg_at(
            &mut w,
            100,
            100_000,
            UpdateMsg::withdraw(vec![p("2.0.0.0/24")]),
        );
        msg_at(&mut w, 101, 0, UpdateMsg::withdraw(vec![p("3.0.0.0/24")]));
        let s = ReplaySchedule::compile(&w.into_bytes(), TimeScale::REAL).unwrap();
        assert_eq!(s.events[1].at, SimDuration::ZERO, "clamped, order kept");
        assert_eq!(s.events[1].update.withdrawn, vec![p("2.0.0.0/24")]);
        assert_eq!(s.events[2].at, SimDuration::from_micros(500_000));
    }

    #[test]
    fn epochs_split_on_quiet_gaps() {
        let mut w = MrtWriter::new();
        // Burst 1: t=0, +200us. Burst 2 after 1.5s of quiet: two events.
        msg_at(&mut w, 10, 0, UpdateMsg::withdraw(vec![p("1.0.0.0/24")]));
        msg_at(&mut w, 10, 200, UpdateMsg::withdraw(vec![p("2.0.0.0/24")]));
        msg_at(
            &mut w,
            11,
            500_200,
            UpdateMsg::withdraw(vec![p("3.0.0.0/24")]),
        );
        msg_at(
            &mut w,
            11,
            500_400,
            UpdateMsg::withdraw(vec![p("4.0.0.0/24")]),
        );
        let s = ReplaySchedule::compile(&w.into_bytes(), TimeScale::REAL).unwrap();
        assert_eq!(
            s.epochs(SimDuration::from_millis(100)),
            vec![SimDuration::ZERO, SimDuration::from_micros(1_500_200)]
        );
        // A coarse-enough quiet threshold folds everything into one.
        assert_eq!(
            s.epochs(SimDuration::from_secs(10)),
            vec![SimDuration::ZERO]
        );
        assert!(ReplaySchedule::default()
            .epochs(SimDuration::from_millis(1))
            .is_empty());
    }

    #[test]
    fn snapshot_loads_and_carves_per_peer() {
        let mut w = MrtWriter::new();
        let peers = [
            PeerTableEntry {
                bgp_id: Ipv4Addr::new(10, 0, 0, 2),
                addr: Ipv4Addr::new(10, 0, 0, 2),
                asn: 65002,
            },
            PeerTableEntry {
                bgp_id: Ipv4Addr::new(10, 0, 0, 3),
                addr: Ipv4Addr::new(10, 0, 0, 3),
                asn: 65003,
            },
        ];
        w.peer_index_table(0, Ipv4Addr::new(192, 0, 2, 1), "v", &peers);
        let both = |pfx: &str, seq: u32, w: &mut MrtWriter| {
            w.rib_ipv4(
                0,
                seq,
                p(pfx),
                &[
                    RibEntry {
                        peer_index: 0,
                        originated: 1,
                        attrs: attrs(2),
                    },
                    RibEntry {
                        peer_index: 1,
                        originated: 1,
                        attrs: attrs(3),
                    },
                ],
            )
        };
        both("9.9.0.0/16", 0, &mut w);
        both("1.0.0.0/24", 1, &mut w);
        // One peer-0-only record.
        w.rib_ipv4(
            0,
            2,
            p("5.5.5.0/24"),
            &[RibEntry {
                peer_index: 0,
                originated: 1,
                attrs: attrs(2),
            }],
        );
        let snap = RibSnapshot::load(&w.into_bytes()).unwrap();
        assert_eq!(snap.peers.len(), 2);
        assert_eq!(
            snap.prefixes(),
            vec![p("1.0.0.0/24"), p("5.5.5.0/24"), p("9.9.0.0/16")]
        );
        let r0 = snap.routes_for_peer(0);
        assert_eq!(r0.len(), 3);
        let r1 = snap.routes_for_peer(1);
        assert_eq!(r1.len(), 2);
        assert!(r1
            .iter()
            .all(|(_, a)| a.next_hop == Ipv4Addr::new(10, 0, 0, 3)));

        // Feeds pack runs of shared attrs into few messages.
        let feed = pack_feed(&r0, 300);
        assert_eq!(feed.len(), 1, "one attr set -> one UPDATE");
        assert_eq!(feed[0].nlri.len(), 3);
    }

    #[test]
    fn snapshot_requires_peer_table_first() {
        let mut w = MrtWriter::new();
        w.rib_ipv4(
            0,
            0,
            p("1.0.0.0/24"),
            &[RibEntry {
                peer_index: 0,
                originated: 1,
                attrs: attrs(2),
            }],
        );
        assert_eq!(
            RibSnapshot::load(&w.into_bytes()),
            Err(MrtError::Bad("RIB record before peer index table"))
        );
        assert_eq!(
            RibSnapshot::load(&[]),
            Err(MrtError::Bad("missing peer index table"))
        );
    }

    #[test]
    fn pack_feed_splits_oversize_runs() {
        let routes: Vec<(Ipv4Prefix, Arc<RouteAttrs>)> = (0..2000u32)
            .map(|i| {
                (
                    Ipv4Prefix::new(Ipv4Addr::from(0x0a00_0000 + (i << 8)), 24),
                    attrs(2),
                )
            })
            .collect();
        let feed = pack_feed(&routes, 300);
        assert!(feed.len() >= 7);
        let total: usize = feed.iter().map(|u| u.nlri.len()).sum();
        assert_eq!(total, 2000);
        for u in &feed {
            assert!(sc_bgp::BgpMessage::Update(u.clone()).encode().len() <= 4096);
        }
    }
}
