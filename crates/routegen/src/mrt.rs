//! Deterministic MRT fixture export.
//!
//! Turns the synthetic feed generator into RIS-shaped archives: a
//! `TABLE_DUMP_V2` RIB snapshot (the `bview` shape — one record per
//! prefix, one attribute entry per collector peer) and a bursty
//! `BGP4MP_ET` update trace (the `updates` shape — withdraw bursts with
//! microsecond inter-arrivals, each slice re-announced moments later,
//! long quiet gaps between bursts). Both are pure functions of their
//! config. The snapshot is the committed `tests/fixtures/ris_rib.mrt`,
//! byte-reproducible: the ignored `write_mrt_fixtures` test rewrites it
//! and `mrt_fixtures_are_byte_reproducible` pins the bytes. Only the
//! perf ledger's `ReplaySchedule::compile` kernel reads the trace.

use crate::{generate_feed_for, prefix_universe, FeedConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_bgp::attrs::RouteAttrs;
use sc_bgp::msg::{BgpMessage, UpdateMsg};
use sc_mrt::{Bgp4mpMessage, MrtWriter, PeerTableEntry, RibEntry};
use sc_net::{Ipv4Addr, Ipv4Prefix};
use std::sync::Arc;

/// Parameters of an exported archive pair. [`MrtExportConfig::fixture`]
/// produces the committed snapshot; the perf ledger scales the same
/// generator to its workloads.
#[derive(Clone, Copy, Debug)]
pub struct MrtExportConfig {
    /// Prefixes in the snapshot universe.
    pub prefixes: u32,
    /// Seed for the universe, attributes, and burst timing.
    pub seed: u64,
    /// Collector peers (each contributes one RIB entry per prefix).
    pub peers: u16,
    /// Base MRT timestamp (seconds; fixtures use a 2015 epoch, the
    /// paper's era).
    pub epoch: u32,
    /// Withdraw/re-announce bursts in the update trace (peer 0 churns).
    pub bursts: u32,
    /// Prefixes withdrawn (then re-announced) per burst.
    pub burst_prefixes: u32,
    /// Mean quiet gap between burst onsets, microseconds (jittered
    /// ±50%; within a burst messages arrive microseconds apart).
    pub burst_gap_us: u64,
}

impl MrtExportConfig {
    /// The committed-fixture scale: small enough to live in git,
    /// structured enough to exercise every record kind.
    pub fn fixture() -> MrtExportConfig {
        MrtExportConfig {
            prefixes: 256,
            seed: 0x2015_0517, // the paper's SIGCOMM year/date
            peers: 2,
            epoch: 1_431_907_200, // 2015-05-18T00:00:00Z
            bursts: 24,
            burst_prefixes: 8,
            burst_gap_us: 400_000,
        }
    }
}

/// The recorded peer table: RIS-style documentation addresses, distinct
/// from every simulated node (consumers map recorded peers onto their
/// own routers and rewrite next-hops).
pub fn export_peers(cfg: &MrtExportConfig) -> Vec<PeerTableEntry> {
    (0..cfg.peers)
        .map(|i| PeerTableEntry {
            bgp_id: Ipv4Addr::new(198, 51, 100, i as u8 + 1),
            addr: Ipv4Addr::new(198, 51, 100, i as u8 + 1),
            asn: 64900 + i,
        })
        .collect()
}

/// Each peer's per-prefix attributes, in universe (= snapshot) order,
/// derived from the same run-structured generator the live providers
/// use.
fn per_peer_routes(
    cfg: &MrtExportConfig,
    universe: &[Ipv4Prefix],
    peers: &[PeerTableEntry],
) -> Vec<Vec<Arc<RouteAttrs>>> {
    peers
        .iter()
        .map(|p| {
            let feed = generate_feed_for(
                &FeedConfig::new(cfg.prefixes, cfg.seed, p.addr, p.asn),
                universe,
            );
            let mut attrs = Vec::with_capacity(universe.len());
            for u in &feed {
                let a = u.attrs.as_ref().expect("feeds only announce");
                attrs.extend(std::iter::repeat_n(a.clone(), u.nlri.len()));
            }
            assert_eq!(attrs.len(), universe.len(), "feed covers the universe");
            attrs
        })
        .collect()
}

/// Export the RIB snapshot: `PEER_INDEX_TABLE` + one `RIB_IPV4_UNICAST`
/// record per universe prefix carrying every peer's route.
pub fn rib_snapshot_mrt(cfg: &MrtExportConfig) -> Vec<u8> {
    let universe = prefix_universe(cfg.prefixes, cfg.seed);
    let peers = export_peers(cfg);
    let routes = per_peer_routes(cfg, &universe, &peers);
    let mut w = MrtWriter::new();
    w.peer_index_table(cfg.epoch, Ipv4Addr::new(192, 0, 2, 1), "sc-sim", &peers);
    for (seq, prefix) in universe.iter().enumerate() {
        let entries: Vec<RibEntry> = peers
            .iter()
            .enumerate()
            .map(|(pi, _)| RibEntry {
                peer_index: pi as u16,
                originated: cfg.epoch - 86_400, // table loaded a day ago
                attrs: routes[pi][seq].clone(),
            })
            .collect();
        w.rib_ipv4(cfg.epoch, seq as u32, *prefix, &entries);
    }
    w.into_bytes()
}

/// Export the bursty update trace: rotating slices of peer 0's table
/// are withdrawn (messages microseconds apart) and re-announced a few
/// hundred microseconds later, bursts separated by long jittered quiet
/// gaps. All timestamps are `BGP4MP_ET` (second + microsecond).
pub fn update_trace_mrt(cfg: &MrtExportConfig) -> Vec<u8> {
    let universe = prefix_universe(cfg.prefixes, cfg.seed);
    let peers = export_peers(cfg);
    // Only peer 0 churns, so only its routes are generated (each peer's
    // feed is an independent function of the seed).
    let routes = per_peer_routes(cfg, &universe, &peers[..1]);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x3927_7474); // "mrt"
    let mut w = MrtWriter::new();
    let slice = (cfg.burst_prefixes as usize).clamp(1, universe.len());
    let slices = (universe.len() / slice).max(1);
    let mut t_us: u64 = cfg.epoch as u64 * 1_000_000;
    let local_ip = Ipv4Addr::new(192, 0, 2, 1);
    let mut emit = |t_us: u64, update: UpdateMsg| {
        let peering = Bgp4mpMessage {
            peer_as: peers[0].asn,
            local_as: 64512,
            peer_ip: peers[0].addr,
            local_ip,
            msg: BgpMessage::Update(update),
        };
        MrtWriter::bgp4mp_message(
            &mut w,
            (t_us / 1_000_000) as u32,
            Some((t_us % 1_000_000) as u32),
            &peering,
        );
    };
    for b in 0..cfg.bursts {
        let s = b as usize % slices;
        let targets = &universe[s * slice..(s + 1) * slice];
        // Withdrawals: one message per few prefixes, µs apart.
        for chunk in targets.chunks(4) {
            emit(t_us, UpdateMsg::withdraw(chunk.to_vec()));
            t_us += rng.gen_range(2..60u64);
        }
        // Re-announcements a few hundred µs later, preserving the
        // recorded attribute runs (`targets[i]` is `universe[s*slice+i]`
        // by construction, so runs come straight off the route list).
        t_us += rng.gen_range(200..600u64);
        let mut i = 0;
        while i < targets.len() {
            let attrs = routes[0][s * slice + i].clone();
            let mut j = i + 1;
            while j < targets.len() && routes[0][s * slice + j] == attrs {
                j += 1;
            }
            emit(t_us, UpdateMsg::announce(attrs, targets[i..j].to_vec()));
            t_us += rng.gen_range(2..60u64);
            i = j;
        }
        // Quiet gap to the next burst onset (±50% jitter).
        t_us += cfg.burst_gap_us / 2 + rng.gen_range(0..cfg.burst_gap_us);
    }
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_mrt::{ReplaySchedule, RibSnapshot, TimeScale};
    use sc_net::SimDuration;

    #[test]
    fn exports_are_deterministic() {
        let cfg = MrtExportConfig::fixture();
        assert_eq!(rib_snapshot_mrt(&cfg), rib_snapshot_mrt(&cfg));
        assert_eq!(update_trace_mrt(&cfg), update_trace_mrt(&cfg));
        // A different seed produces a different archive.
        let other = MrtExportConfig {
            seed: cfg.seed + 1,
            ..cfg
        };
        assert_ne!(update_trace_mrt(&cfg), update_trace_mrt(&other));
    }

    #[test]
    fn snapshot_loads_back_to_the_universe() {
        let cfg = MrtExportConfig::fixture();
        let snap = RibSnapshot::load(&rib_snapshot_mrt(&cfg)).unwrap();
        assert_eq!(snap.peers.len(), 2);
        assert_eq!(snap.view, "sc-sim");
        let universe = prefix_universe(cfg.prefixes, cfg.seed);
        assert_eq!(snap.prefixes(), universe);
        for pi in 0..cfg.peers {
            let routes = snap.routes_for_peer(pi);
            assert_eq!(routes.len(), universe.len());
            assert!(routes
                .iter()
                .all(|(_, a)| a.next_hop == snap.peers[pi as usize].addr));
            assert!(routes
                .iter()
                .all(|(_, a)| a.as_path.first_as() == Some(64900 + pi)));
        }
    }

    #[test]
    fn trace_compiles_with_bursty_epochs() {
        let cfg = MrtExportConfig::fixture();
        let sched = ReplaySchedule::compile(&update_trace_mrt(&cfg), TimeScale::REAL).unwrap();
        assert!(!sched.events.is_empty());
        // Every burst withdraws and re-announces its slice.
        let prefix_events: usize = sched
            .events
            .iter()
            .map(|e| e.update.nlri.len() + e.update.withdrawn.len())
            .sum();
        assert_eq!(
            prefix_events,
            2 * cfg.bursts as usize * cfg.burst_prefixes as usize
        );
        // One onset per burst: intra-burst gaps are microseconds,
        // inter-burst gaps ≥ 200 ms.
        let onsets = 1 + sched
            .events
            .windows(2)
            .filter(|w| w[1].at - w[0].at > SimDuration::from_millis(100))
            .count();
        assert_eq!(onsets, cfg.bursts as usize);
        assert_eq!(sched.events[0].at, SimDuration::ZERO);
        // Warping compresses the whole trace proportionally.
        let fast = ReplaySchedule::compile(&update_trace_mrt(&cfg), TimeScale::new(1, 4)).unwrap();
        assert!(fast.end <= sched.end / 4 + SimDuration::from_nanos(1));
    }
}
