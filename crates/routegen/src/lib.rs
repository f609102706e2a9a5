//! Synthetic RIPE-RIS-style route feeds and MRT fixture export.
//!
//! The paper loads R2 and R3 with "an increasing number of actual BGP
//! routes collected from the RIPE RIS dataset" (1k … 500k prefixes),
//! both peers advertising the *same* set. This crate generates
//! deterministic synthetic full tables that preserve what the
//! experiments actually depend on:
//!
//! * the prefix **count** (the x-axis of Fig. 5),
//! * a realistic prefix-length mix (dominated by /24s, per CIDR report),
//! * attribute sharing — long runs of prefixes share one AS path, which
//!   is what lets BGP speakers (and the supercharger) pack NLRI,
//! * both providers announcing identical prefix sets with themselves as
//!   next-hop.
//!
//! Real RIS archives are still not fetchable from the offline lab, but
//! they no longer have to be: the [`mrt`] module exports these
//! synthetic tables *in RIS's own format* — RFC 6396 `TABLE_DUMP_V2`
//! RIB snapshots (and bursty `BGP4MP_ET` update traces, which only the
//! perf ledger's compile kernel reads) — so the consumer of recorded
//! tables (`sc_mrt::RibSnapshot` behind the `FeedSource::MrtSnapshot`
//! scenario path) runs against a committed `.mrt` fixture that is
//! byte-reproducible from a seed (the ignored `write_mrt_fixtures` test
//! regenerates it). Swap in a genuine `bview` file and the same
//! pipeline loads it.
//!
//! Everything is a pure function of the seed, so two provider routers —
//! or two controller replicas — can regenerate identical feeds.

pub mod mrt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_bgp::attrs::{AsPath, RouteAttrs};
use sc_bgp::msg::UpdateMsg;
use sc_bgp::AdjRibOut;
use sc_net::Ipv4Prefix;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Feed generation parameters.
#[derive(Clone, Debug)]
pub struct FeedConfig {
    /// Number of distinct prefixes (the paper sweeps 1k → 500k).
    pub prefix_count: u32,
    /// Deterministic seed for the prefix universe and attribute runs.
    pub seed: u64,
    /// The announcing provider's next-hop address.
    pub next_hop: Ipv4Addr,
    /// The provider's AS (first hop of every path).
    pub origin_as: u16,
    /// Max NLRI entries per UPDATE before size-splitting (real tables
    /// pack a few hundred).
    pub max_nlri_per_update: usize,
}

impl FeedConfig {
    pub fn new(prefix_count: u32, seed: u64, next_hop: Ipv4Addr, origin_as: u16) -> FeedConfig {
        FeedConfig {
            prefix_count,
            seed,
            next_hop,
            origin_as,
            max_nlri_per_update: 300,
        }
    }
}

/// The deterministic prefix universe for a seed: `count` distinct,
/// sorted prefixes with a CIDR-report-like length mix, avoiding RFC1918
/// and other special-purpose space (the lab's infrastructure lives
/// there). It is the set of the first `count` distinct draws of the
/// seed's prefix stream.
pub fn prefix_universe(count: u32, seed: u64) -> Vec<Ipv4Prefix> {
    let count = count as usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_5eed);
    let mut universe = Vec::with_capacity(count);
    let mut batch = Vec::new();
    // Draw exactly the shortfall each round: a draw adds at most one new
    // prefix, so no round overshoots the first `count` distinct draws.
    while universe.len() < count {
        batch.extend((universe.len()..count).map(|_| draw_prefix(&mut rng)));
        batch.sort_unstable();
        batch.dedup();
        merge_new(&mut universe, &mut batch);
    }
    universe
}

/// One draw of the prefix stream. Public-ish first octet: 1..=223,
/// excluding 10 and 127, 172.16/12 and 192.168/16.
fn draw_prefix(rng: &mut SmallRng) -> Ipv4Prefix {
    loop {
        let len: u8 = match rng.gen_range(0..100u32) {
            0..=59 => 24, // CIDR report: /24 dominates
            60..=72 => 23,
            73..=82 => 22,
            83..=88 => 21,
            89..=93 => 20,
            94..=96 => 19,
            97..=98 => 16,
            _ => 8,
        };
        let addr: u32 = rng.gen();
        let first = (addr >> 24) as u8;
        if first == 0 || first == 10 || first == 127 || first >= 224 {
            continue;
        }
        if first == 172 && (addr >> 20) & 0xf >= 1 {
            continue; // skip 172.16/12 conservatively
        }
        if first == 192 && ((addr >> 16) & 0xff) == 168 {
            continue;
        }
        return Ipv4Prefix::new(Ipv4Addr::from(addr), len);
    }
}

/// Merge the sorted, distinct `batch` into the sorted `universe` in
/// place, dropping the prefixes it already holds: `universe` grows by
/// the new prefixes only and is filled from the back, emptying `batch`.
fn merge_new(universe: &mut Vec<Ipv4Prefix>, batch: &mut Vec<Ipv4Prefix>) {
    batch.retain(|p| universe.binary_search(p).is_err());
    let mut old = universe.len();
    universe.extend_from_slice(batch);
    for slot in (0..universe.len()).rev() {
        let Some(&new) = batch.last() else { break };
        if old > 0 && universe[old - 1] > new {
            old -= 1;
            universe[slot] = universe[old];
        } else {
            universe[slot] = new;
            batch.pop();
        }
    }
}

/// Generate the UPDATE stream for one provider: every prefix of the
/// universe announced with `cfg.next_hop`, consecutive prefixes sharing
/// attribute sets in runs (like a real table dump).
pub fn generate_feed(cfg: &FeedConfig) -> Vec<UpdateMsg> {
    let universe = prefix_universe(cfg.prefix_count, cfg.seed);
    generate_feed_for(cfg, &universe)
}

/// Like [`generate_feed`] but over a caller-provided universe (so R2 and
/// R3 provably announce the same prefixes).
pub fn generate_feed_for(cfg: &FeedConfig, universe: &[Ipv4Prefix]) -> Vec<UpdateMsg> {
    let mut updates = Vec::new();
    let mut i = 0usize;
    for (run, attrs) in attribute_runs(cfg, universe.len()) {
        for chunk in universe[i..i + run].chunks(cfg.max_nlri_per_update) {
            UpdateMsg::announce(attrs.clone(), chunk.to_vec()).split_to_fit(&mut updates);
        }
        i += run;
    }
    updates
}

/// [`generate_feed_for`]'s feed as the provider's Adj-RIB-Out: its
/// attribute runs over `universe` itself, which every provider's table
/// shares instead of holding a copy.
pub fn generate_adj_rib_out(cfg: &FeedConfig, universe: &Arc<[Ipv4Prefix]>) -> AdjRibOut {
    let mut start = 0;
    let runs = attribute_runs(cfg, universe.len())
        .map(|(run, attrs)| {
            let first = start as u32;
            start += run;
            (first, attrs)
        })
        .collect();
    AdjRibOut::from_runs(Arc::clone(universe), runs)
}

/// The feed's attribute sets over `n` prefixes in order, each with the
/// number of consecutive prefixes that share it (like a real table
/// dump).
fn attribute_runs(cfg: &FeedConfig, n: usize) -> impl Iterator<Item = (usize, Arc<RouteAttrs>)> {
    // Attribute-run RNG is salted with the origin AS so the two
    // providers have *different* paths (as in reality) over the *same*
    // prefixes.
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (cfg.origin_as as u64) << 32);
    let (next_hop, origin_as) = (cfg.next_hop, cfg.origin_as);
    let mut i = 0usize;
    std::iter::from_fn(move || {
        if i == n {
            return None;
        }
        // Run length: how many consecutive prefixes share this path.
        let run = rng.gen_range(1..=64usize).min(n - i);
        let path_len = rng.gen_range(1..=4usize);
        let mut path = vec![origin_as];
        for _ in 0..path_len {
            path.push(rng.gen_range(1000..64000u16));
        }
        let mut attrs = RouteAttrs::ebgp(AsPath::sequence(path), next_hop);
        if rng.gen_bool(0.3) {
            attrs.med = Some(rng.gen_range(0..200));
        }
        if rng.gen_bool(0.2) {
            attrs.communities = vec![((origin_as as u32) << 16) | rng.gen_range(0..1000u32)];
        }
        i += run;
        Some((run, attrs.shared()))
    })
}

/// The paper's flow-sampling rule: `n` destination IPs drawn from
/// random prefixes of the universe, always including one host in the
/// first and the last advertised prefix.
pub fn sample_flow_ips(universe: &[Ipv4Prefix], n: usize, seed: u64) -> Vec<Ipv4Addr> {
    assert!(!universe.is_empty());
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xf10f_f10f);
    let mut ips = Vec::with_capacity(n);
    ips.push(universe.first().unwrap().sample_host());
    if universe.len() > 1 {
        ips.push(universe.last().unwrap().sample_host());
    }
    while ips.len() < n {
        let p = universe[rng.gen_range(0..universe.len())];
        let ip = p.sample_host();
        if !ips.contains(&ip) {
            ips.push(ip);
        }
    }
    ips.truncate(n);
    ips
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_net::FxHashSet;

    /// The universe as a hash set of draws sorted once at the end: the
    /// definition [`prefix_universe`] must match.
    fn hashed_universe(count: u32, seed: u64) -> Vec<Ipv4Prefix> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_5eed);
        let mut set = FxHashSet::default();
        while set.len() < count as usize {
            set.insert(draw_prefix(&mut rng));
        }
        let mut universe: Vec<Ipv4Prefix> = set.into_iter().collect();
        universe.sort_unstable();
        universe
    }

    #[test]
    fn merged_universe_equals_the_hashed_draw() {
        for (count, seed) in [
            (1, 1),
            (1_000, 42),
            (10_000, 42),
            (10_000, 1034),
            (200_000, 42),
        ] {
            assert_eq!(
                prefix_universe(count, seed),
                hashed_universe(count, seed),
                "count {count}, seed {seed}"
            );
        }
    }

    #[test]
    fn universe_is_deterministic_sorted_distinct() {
        let a = prefix_universe(5_000, 42);
        let b = prefix_universe(5_000, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5_000);
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted, a);
        // Different seed, different universe.
        let c = prefix_universe(5_000, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn universe_avoids_infrastructure_space() {
        for p in prefix_universe(20_000, 7) {
            let o = p.network().octets();
            assert_ne!(o[0], 10, "{p} collides with the lab LAN");
            assert_ne!(o[0], 127);
            assert!(o[0] >= 1 && o[0] < 224, "{p} outside unicast space");
            assert!(!(o[0] == 192 && o[1] == 168), "{p}");
        }
    }

    #[test]
    fn length_mix_dominated_by_slash24() {
        let u = prefix_universe(50_000, 1);
        let s24 = u.iter().filter(|p| p.len() == 24).count() as f64 / u.len() as f64;
        assert!((0.5..0.7).contains(&s24), "/24 share {s24}");
        assert!(u.iter().all(|p| p.len() >= 8 && p.len() <= 24));
    }

    #[test]
    fn feed_covers_universe_exactly_with_correct_nh() {
        let cfg = FeedConfig::new(3_000, 5, Ipv4Addr::new(10, 0, 0, 2), 65002);
        let universe = prefix_universe(cfg.prefix_count, cfg.seed);
        let feed = generate_feed(&cfg);
        let mut announced = Vec::new();
        for u in &feed {
            assert!(u.withdrawn.is_empty());
            let attrs = u.attrs.as_ref().unwrap();
            assert_eq!(attrs.next_hop, Ipv4Addr::new(10, 0, 0, 2));
            assert_eq!(attrs.as_path.first_as(), Some(65002));
            assert!(
                sc_bgp::BgpMessage::Update(u.clone()).encode().len() <= 4096,
                "every UPDATE fits the BGP cap"
            );
            announced.extend(u.nlri.iter().copied());
        }
        let mut sorted = announced.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), announced.len(), "no duplicate NLRI");
        assert_eq!(sorted, universe, "feed covers the universe exactly");
    }

    #[test]
    fn providers_share_prefixes_not_paths() {
        let universe = prefix_universe(2_000, 9);
        let r2 = generate_feed_for(
            &FeedConfig::new(2_000, 9, Ipv4Addr::new(10, 0, 0, 2), 65002),
            &universe,
        );
        let r3 = generate_feed_for(
            &FeedConfig::new(2_000, 9, Ipv4Addr::new(10, 0, 0, 3), 65003),
            &universe,
        );
        let nlri = |feed: &[UpdateMsg]| {
            let mut v: Vec<Ipv4Prefix> = feed.iter().flat_map(|u| u.nlri.iter().copied()).collect();
            v.sort();
            v
        };
        assert_eq!(nlri(&r2), nlri(&r3), "same destinations");
        // Next-hops differ.
        assert!(r2
            .iter()
            .all(|u| u.attrs.as_ref().unwrap().next_hop == Ipv4Addr::new(10, 0, 0, 2)));
        assert!(r3
            .iter()
            .all(|u| u.attrs.as_ref().unwrap().next_hop == Ipv4Addr::new(10, 0, 0, 3)));
    }

    /// The table form exports what seeding an Adj-RIB-Out from the
    /// UPDATE feed exports (each generation's attribute sets are its
    /// own `Arc`s, so they compare by value).
    #[test]
    fn adj_rib_out_is_the_feed_as_a_table() {
        let universe: Arc<[Ipv4Prefix]> = prefix_universe(3_000, 5).into();
        for origin_as in [65002, 65003] {
            let cfg = FeedConfig::new(3_000, 5, Ipv4Addr::new(10, 0, 0, 2), origin_as);
            let table = generate_adj_rib_out(&cfg, &universe);
            let seeded = AdjRibOut::from_updates(&generate_feed_for(&cfg, &universe));
            assert_eq!(table.len(), 3_000);
            assert_eq!(table.export(), seeded.export());
        }
    }

    #[test]
    fn attribute_runs_share_arcs() {
        let cfg = FeedConfig::new(5_000, 11, Ipv4Addr::new(10, 0, 0, 2), 65002);
        let feed = generate_feed(&cfg);
        let distinct_attr_sets: std::collections::BTreeSet<*const RouteAttrs> = feed
            .iter()
            .map(|u| std::sync::Arc::as_ptr(u.attrs.as_ref().unwrap()))
            .collect();
        let total_nlri: usize = feed.iter().map(|u| u.nlri.len()).sum();
        assert!(
            distinct_attr_sets.len() * 4 < total_nlri,
            "attribute sharing across prefixes: {} sets for {} prefixes",
            distinct_attr_sets.len(),
            total_nlri
        );
        // Average run ≈ 32 → roughly count/32 attribute sets.
        let ratio = 5_000.0 / distinct_attr_sets.len() as f64;
        assert!((8.0..130.0).contains(&ratio), "run-length ratio {ratio}");
    }

    #[test]
    fn flow_sampling_includes_first_and_last() {
        let u = prefix_universe(1_000, 3);
        let ips = sample_flow_ips(&u, 100, 3);
        assert_eq!(ips.len(), 100);
        assert!(u.first().unwrap().contains(ips[0]));
        assert!(u.last().unwrap().contains(ips[1]));
        // Deterministic.
        assert_eq!(ips, sample_flow_ips(&u, 100, 3));
        // All sampled IPs are inside some universe prefix.
        for ip in &ips {
            assert!(u.iter().any(|p| p.contains(*ip)));
        }
        let dedup: std::collections::BTreeSet<_> = ips.iter().collect();
        assert_eq!(dedup.len(), ips.len(), "flows are distinct");
    }
}
