//! The RIB's bytes-per-prefix, gated.
//!
//! ROADMAP aim 1: a claim survives only with a measurement that fails
//! when it stops being true. `LocRib`'s storage is sized to its content
//! (see `sc_bgp::rib`); these budgets — `LocRib::footprint`, by capacity,
//! on deterministic tables of consecutive /24s — sit at most 5% above
//! what the layout costs today (20-byte index nodes, 16-byte candidates,
//! 40- and 56-byte small entries), and far below what the layouts before
//! it cost — 40-byte candidates carrying their prefix and their peer's
//! facts, and before that one `Vec<Route>` per prefix with the entries
//! inline in every trie node — so a per-prefix regression fails here
//! before it shows as RSS in the perf ledger.

use std::net::Ipv4Addr;
use supercharged_router::bgp::{AsPath, Footprint, LocRib, PeerInfo, RouteAttrs, UpdateMsg};
use supercharged_router::net::{Ipv4Prefix, MacAddr};
use supercharged_router::supercharger::engine::PeerSpec;
use supercharged_router::supercharger::{Engine, EngineConfig};

fn slash24(i: u32) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000 + (i << 8)), 24)
}

fn peer(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, n, 1)
}

/// A router-side RIB holding `prefixes` consecutive /24s from each of
/// `peers` peers, loaded one full feed after the other.
fn router_rib(prefixes: u32, peers: u8) -> LocRib {
    let mut rib = LocRib::new();
    for n in 1..=peers {
        let attrs = RouteAttrs::ebgp(AsPath::sequence(vec![65000 + n as u16, 65100]), peer(n));
        let attrs = attrs.shared();
        let from = PeerInfo {
            peer: peer(n),
            router_id: peer(n),
            ebgp: true,
            igp_cost: 0,
        };
        for i in 0..prefixes {
            rib.update(slash24(i), attrs.clone(), from, 100);
        }
    }
    rib
}

fn bytes_per_prefix(f: Footprint) -> f64 {
    f.bytes as f64 / f.prefixes as f64
}

/// The router behind a controller: one candidate per prefix.
/// Today 104.9 B/prefix (52.4 index + 52.4 entries); with 40-byte
/// candidates 167.8, before the slot-indexed layout 264.9.
#[test]
fn one_candidate_per_prefix_fits_its_budget() {
    let f = router_rib(100_000, 1).footprint();
    assert_eq!(
        (f.prefixes, f.routes, f.spilled_entries),
        (100_000, 100_000, 0)
    );
    let per_prefix = bytes_per_prefix(f);
    assert!(per_prefix <= 110.0, "{per_prefix:.1} B/prefix: {f:?}");
}

/// The controller of the Fig. 4 lab: two candidates per prefix plus what
/// it last announced, in `LocRib<Option<Announced>>`.
/// Today 125.8 B/prefix (52.4 index + 73.4 entries); with 40-byte
/// candidates 199.2, before the slot-indexed layout 327.8.
#[test]
fn two_candidates_and_owner_state_fit_their_budget() {
    let specs = (1..=2u8)
        .map(|n| PeerSpec {
            id: peer(n),
            mac: MacAddr([2, 0, 0, 0, 0, n]),
            switch_port: n as u16,
            local_pref: 100 * n as u32,
            router_id: peer(n),
        })
        .collect();
    let mut engine = Engine::new(EngineConfig::new("10.0.200.0/24".parse().unwrap(), specs));
    let universe: Vec<Ipv4Prefix> = (0..100_000).map(slash24).collect();
    for n in 1..=2u8 {
        let attrs = RouteAttrs::ebgp(AsPath::sequence(vec![65000 + n as u16, 65100]), peer(n));
        let attrs = attrs.shared();
        for nlri in universe.chunks(500) {
            engine.process_update(peer(n), &UpdateMsg::announce(attrs.clone(), nlri.to_vec()));
        }
    }
    let f = engine.rib().footprint();
    assert_eq!(
        (f.prefixes, f.routes, f.spilled_entries),
        (100_000, 200_000, 0)
    );
    let per_prefix = bytes_per_prefix(f);
    assert!(per_prefix <= 132.0, "{per_prefix:.1} B/prefix: {f:?}");
}

/// An IXP world: nine candidates per prefix, every entry spilled. This is
/// the regime the inline slots must not tax. Today 254.6 B/prefix: 41.0
/// index, 45.1 for the small slab the entries passed through and its
/// free list, 24.6 large entries and 144 for the nine routes. With
/// 40-byte candidates it was 519.7 (360 of routes), and the layout before
/// cost 721.9 (it rounded nine candidates up to a 16-route block).
#[test]
fn nine_candidates_per_prefix_pay_for_nine() {
    let f = router_rib(2_000, 9).footprint();
    assert_eq!(
        (f.prefixes, f.routes, f.spilled_entries),
        (2_000, 18_000, 2_000)
    );
    let per_prefix = bytes_per_prefix(f);
    assert!(per_prefix <= 267.0, "{per_prefix:.1} B/prefix: {f:?}");
    assert_eq!(f.list_bytes, 18_000 * 16, "a spilled candidate is 16 B");
}
