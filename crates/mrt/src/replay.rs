//! How recorded tables enter the simulator, and the update-trace
//! compiler the perf ledger times.
//!
//! [`RibSnapshot`] loads a `TABLE_DUMP_V2` dump (a RIS `bview`) into
//! per-peer route lists; [`NextHopRewriter::rewrite_routes`] points a
//! peer's routes at the simulated provider that announces them, and
//! [`pack_feed`] packs them into the UPDATEs that provider sends. This
//! is the path `sc-scenarios`' `FeedSource::MrtSnapshot` takes.
//!
//! [`ReplaySchedule::compile`] turns a `BGP4MP(_ET)` update stream into
//! `(offset, peering, UPDATE)` events relative to the first record,
//! scaled by a [`TimeScale`]. Nothing in the simulator plays such a
//! schedule: the perf ledger's `mrt.schedule_compile_ns_per_update`
//! kernel (`benchmark/`) times the compiler over a generated trace, and
//! the compiler goes when that kernel does.

use crate::records::{MrtError, MrtReader, MrtRecord, PeerTableEntry, RibEntryRecord};
use sc_bgp::adj_out::AdjRibOut;
use sc_bgp::attrs::RouteAttrs;
use sc_bgp::msg::{BgpMessage, UpdateMsg};
use sc_net::{Ipv4Prefix, SimDuration};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A rational warp factor on recorded inter-arrival gaps: they are
/// multiplied by `num/den`. Held as a rational, never a float, so
/// scaled offsets are exact.
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

/// One recorded UPDATE at `at` (offset from the first record, already
/// time-scaled) from the recorded peer.
#[derive(Clone, PartialEq, Debug)]
pub struct ReplayEvent {
    pub at: SimDuration,
    pub peer_ip: Ipv4Addr,
    pub peer_as: u16,
    pub update: UpdateMsg,
}

/// A compiled, time-scaled schedule of recorded UPDATE events.
#[derive(Clone, PartialEq, Debug)]
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
    /// snapshot's analogue of `sc_routegen::prefix_universe`.
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

    /// Peer `idx`'s table, once for every provider that replays it.
    /// Its runs are where the routes' attribute sets change — in stream
    /// order, where [`NextHopRewriter`] starts a new rewritten set, and
    /// then in prefix order, each prefix keeping its last route, as
    /// `AdjRibOut::from_updates` sorts a feed.
    pub fn peer_table(&self, idx: u16) -> PeerTable {
        let routes = self.routes_for_peer(idx);
        // Each route tagged with its row: the routes in a row (stream
        // order) with equal attributes.
        let mut rows: Vec<&Arc<RouteAttrs>> = Vec::new();
        let mut tagged: Vec<(Ipv4Prefix, u32)> = Vec::with_capacity(routes.len());
        for (prefix, attrs) in &routes {
            if rows.last().is_none_or(|row| **row != *attrs) {
                rows.push(attrs);
            }
            tagged.push((*prefix, rows.len() as u32 - 1));
        }
        tagged.sort_by_key(|(prefix, _)| *prefix);
        tagged.dedup_by(|later, kept| {
            let repeat = later.0 == kept.0;
            if repeat {
                kept.1 = later.1;
            }
            repeat
        });
        let mut runs: Vec<(u32, Arc<RouteAttrs>)> = Vec::new();
        let mut last_row = None;
        for (i, (_, row)) in tagged.iter().enumerate() {
            if last_row != Some(*row) {
                runs.push((i as u32, Arc::clone(rows[*row as usize])));
                last_row = Some(*row);
            }
        }
        PeerTable {
            prefixes: tagged.iter().map(|(prefix, _)| *prefix).collect(),
            runs,
        }
    }
}

/// One recorded peer's table in Adj-RIB-Out form, built once for every
/// provider that replays the peer: its sorted, distinct prefixes, shared
/// by all of their tables, and the runs of recorded attribute sets over
/// them, which each provider rewrites to its own next hop
/// ([`PeerTable::adj_rib_out`]).
#[derive(Clone, Debug)]
pub struct PeerTable {
    prefixes: Arc<[Ipv4Prefix]>,
    /// `(index of the run's first prefix, recorded attribute set)`,
    /// ascending from 0.
    runs: Vec<(u32, Arc<RouteAttrs>)>,
}

impl PeerTable {
    /// The table's prefixes, sorted and distinct.
    pub fn prefixes(&self) -> &Arc<[Ipv4Prefix]> {
        &self.prefixes
    }

    /// The table with `list` as its prefix list when the two are equal
    /// (a scenario's universe, which the table then shares).
    pub fn sharing(mut self, list: &Arc<[Ipv4Prefix]>) -> PeerTable {
        if *self.prefixes == **list {
            self.prefixes = Arc::clone(list);
        }
        self
    }

    /// The runs' attribute sets, in order.
    pub fn attribute_sets(&self) -> impl Iterator<Item = &Arc<RouteAttrs>> {
        self.runs.iter().map(|(_, attrs)| attrs)
    }

    /// A provider's Adj-RIB-Out over the table: the shared prefix list,
    /// and each run's attribute set with `next_hop` in it. It exports
    /// what `AdjRibOut::from_updates` makes of the peer's
    /// [`NextHopRewriter`]-rewritten [`pack_feed`].
    pub fn adj_rib_out(&self, next_hop: Ipv4Addr) -> AdjRibOut {
        let runs = self
            .runs
            .iter()
            .map(|(start, attrs)| (*start, Arc::new(attrs.with_next_hop(next_hop))))
            .collect();
        AdjRibOut::from_runs(Arc::clone(&self.prefixes), runs)
    }
}

/// Streaming next-hop rewriter: recorded routes carry the collector
/// peer's next hop, but a simulated provider must announce *itself*, as
/// the paper's R2/R3 did with the RIS routes loaded onto them. Rewrites
/// are memoized per consecutive attribute run, so the Arc-sharing a
/// real table exhibits (and NLRI packing exploits) survives the
/// rewrite.
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
    fn rewrite(&mut self, attrs: &Arc<RouteAttrs>) -> Arc<RouteAttrs> {
        match &self.memo {
            Some((src, out)) if **src == **attrs => out.clone(),
            _ => {
                let out = Arc::new(attrs.with_next_hop(self.nh));
                self.memo = Some((attrs.clone(), out.clone()));
                out
            }
        }
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
        assert!(s
            .events
            .iter()
            .all(|e| e.peer_ip == Ipv4Addr::new(10, 0, 0, 2)));

        // Warp 10x faster.
        let fast = ReplaySchedule::compile(&bytes, TimeScale::new(1, 10)).unwrap();
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
