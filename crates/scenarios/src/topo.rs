//! Parametric topology generators.
//!
//! Every generated topology keeps the paper's invariant — the SDN
//! switch sits between the supercharged router R1 and its BGP peers —
//! and varies everything the related work says matters: peer count,
//! delivery-path depth, link latencies, and controller placement
//! (Gämperli et al., arXiv:1611.03113; Sermpezis & Dimitropoulos,
//! arXiv:1702.00188 both find centralization benefits are strongly
//! topology-dependent).
//!
//! A [`TopologySpec`] elaborates into a [`Blueprint`]: the star of
//! provider routers around the switch, plus each provider's delivery
//! path to the measurement sink through shared *forwarder* routers
//! (plain IP routers with static routes, `Calibration::instant`, no
//! BGP). Chains, rings, fat-tree pods and random graphs differ only in
//! the forwarder graph; the Fig. 4 lab is the degenerate two-provider,
//! zero-forwarder case, numbered with the lab's own addresses
//! ([`sc_lab::topology`]). A blueprint carries every provider's
//! identity and links, so [`crate::builder`] wires all of them the
//! same way.

use crate::builder::{edge_mac, edge_subnet, provider_asn, provider_ip, provider_mac};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_lab::topology::{IP_R2, IP_R3, MAC_R2, MAC_R3};
use sc_net::{Ipv4Addr, Ipv4Prefix, MacAddr, SimDuration};

/// A parametric topology family.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// The paper's Fig. 4 hardware lab: R1 + two providers (R2 at
    /// preference 200, R3 at 100), each wired straight to the sink.
    Fig4Lab,
    /// `providers` parallel chains of `hops` forwarders each: provider
    /// i delivers through its own chain. Models long transit paths.
    Chain { providers: usize, hops: usize },
    /// A ring of `ring` forwarders; provider i enters the ring at an
    /// evenly-spaced position and traffic travels the arc down to the
    /// sink attachment. The closing arc exists but carries no routes.
    Ring { providers: usize, ring: usize },
    /// A k-ary Clos/fat-tree pod: k providers feed k/2 aggregation
    /// forwarders which feed one edge forwarder holding the sink.
    FatTreePod { k: usize },
    /// An IXP-style hub (the paper's §5 "boosting an IXP"): `peers`
    /// participant routers fan directly out of the switch, each a
    /// one-hop path to the sink.
    IxpHub { peers: usize },
    /// A seeded random topology: 2..=6 providers, random private-chain
    /// depths (0..=3), random link latencies, random preference order.
    Random { seed: u64 },
}

impl TopologySpec {
    /// A short, filesystem/CSV-safe label.
    pub fn label(&self) -> String {
        match self {
            TopologySpec::Fig4Lab => "fig4".to_string(),
            TopologySpec::Chain { providers, hops } => format!("chain{providers}x{hops}"),
            TopologySpec::Ring { providers, ring } => format!("ring{providers}r{ring}"),
            TopologySpec::FatTreePod { k } => format!("fattree{k}"),
            TopologySpec::IxpHub { peers } => format!("ixp{peers}"),
            TopologySpec::Random { seed } => format!("rand{seed}"),
        }
    }

    /// Elaborate into the provider/forwarder blueprint. Panics on
    /// degenerate parameters (a scenario needs a primary *and* a
    /// backup).
    pub fn blueprint(&self) -> Blueprint {
        match *self {
            TopologySpec::Fig4Lab => {
                // The lab's table: R2/R3 with their own AS numbers and
                // router ids, each delivering to the sink over its own
                // 192.168.x.0/24 at LAN latency.
                let lab = |ip, mac, asn, id: u8, local_pref| ProviderSpec {
                    ip,
                    mac,
                    asn,
                    router_id: Ipv4Addr::new(id, id, id, id),
                    local_pref,
                    lan_latency: SimDuration::from_micros(10),
                    delivery: Delivery::Sink {
                        subnet: Ipv4Prefix::new(Ipv4Addr::new(192, 168, id, 0), 24),
                        mac: MacAddr([0x02, 0x20, 0, 0, 0, id]),
                    },
                    edge_latency: SimDuration::from_micros(10),
                };
                Blueprint {
                    label: self.label(),
                    providers: vec![
                        lab(IP_R2, MAC_R2, 65002, 2, 200),
                        lab(IP_R3, MAC_R3, 65003, 3, 100),
                    ],
                    forwarders: Vec::new(),
                    ring_closer: None,
                }
            }
            TopologySpec::Chain { providers, hops } => {
                assert!(providers >= 2, "need a primary and a backup");
                let mut forwarders = Vec::new();
                let mut specs = Vec::new();
                for i in 0..providers {
                    // Private chain: F_{i,0} -> ... -> F_{i,hops-1} -> sink.
                    let base = forwarders.len();
                    for h in 0..hops {
                        forwarders.push(ForwarderSpec {
                            next: if h + 1 < hops {
                                Some(base + h + 1)
                            } else {
                                None
                            },
                            latency: SimDuration::from_micros(50),
                        });
                    }
                    specs.push(ProviderSpec::generic(
                        i,
                        200 - (i as u32) * 10,
                        if hops > 0 { Some(base) } else { None },
                        providers * hops,
                    ));
                }
                Blueprint {
                    label: self.label(),
                    providers: specs,
                    forwarders,
                    ring_closer: None,
                }
            }
            TopologySpec::Ring { providers, ring } => {
                assert!(providers >= 2, "need a primary and a backup");
                assert!(ring >= 2, "a ring needs at least two nodes");
                // F_0 holds the sink; F_j forwards down to F_{j-1}.
                let forwarders: Vec<ForwarderSpec> = (0..ring)
                    .map(|j| ForwarderSpec {
                        next: if j == 0 { None } else { Some(j - 1) },
                        latency: SimDuration::from_micros(100),
                    })
                    .collect();
                let specs = (0..providers)
                    .map(|i| {
                        // Spread entry points around the ring.
                        let entry = (i * ring) / providers;
                        ProviderSpec::generic(i, 200 - (i as u32) * 10, Some(entry), ring)
                    })
                    .collect();
                Blueprint {
                    label: self.label(),
                    providers: specs,
                    forwarders,
                    ring_closer: Some((ring - 1, 0)),
                }
            }
            TopologySpec::FatTreePod { k } => {
                assert!(k >= 2 && k % 2 == 0, "fat-tree pods have even k >= 2");
                // Forwarder 0 is the edge (sink holder); 1..=k/2 are
                // aggregation forwarders feeding it.
                let mut forwarders = vec![ForwarderSpec {
                    next: None,
                    latency: SimDuration::from_micros(20),
                }];
                for _ in 0..k / 2 {
                    forwarders.push(ForwarderSpec {
                        next: Some(0),
                        latency: SimDuration::from_micros(20),
                    });
                }
                let specs = (0..k)
                    .map(|i| {
                        let entry = Some(1 + i % (k / 2));
                        ProviderSpec::generic(i, 200 - (i as u32) * 10, entry, forwarders.len())
                    })
                    .collect();
                Blueprint {
                    label: self.label(),
                    providers: specs,
                    forwarders,
                    ring_closer: None,
                }
            }
            TopologySpec::IxpHub { peers } => {
                assert!(peers >= 2, "an IXP needs at least two participants");
                Blueprint {
                    label: self.label(),
                    providers: (0..peers)
                        .map(|i| ProviderSpec::generic(i, 200 - (i as u32) * 10, None, 0))
                        .collect(),
                    forwarders: Vec::new(),
                    ring_closer: None,
                }
            }
            TopologySpec::Random { seed } => {
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x70b0_70b0);
                let providers = rng.gen_range(2..=6usize);
                let mut forwarders = Vec::new();
                // (preference, entry, LAN latency) per provider; numbered
                // once the fabric's size is known.
                let mut attach = Vec::new();
                // Random preference permutation (Fisher-Yates).
                let mut prefs: Vec<u32> = (0..providers).map(|i| 200 - (i as u32) * 10).collect();
                for i in (1..prefs.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    prefs.swap(i, j);
                }
                for pref in prefs {
                    let hops = rng.gen_range(0..=3usize);
                    let base = forwarders.len();
                    for h in 0..hops {
                        forwarders.push(ForwarderSpec {
                            next: if h + 1 < hops {
                                Some(base + h + 1)
                            } else {
                                None
                            },
                            latency: SimDuration::from_micros(rng.gen_range(10..500u64)),
                        });
                    }
                    let entry = if hops > 0 { Some(base) } else { None };
                    attach.push((pref, entry, rng.gen_range(5..100u64)));
                }
                let specs = attach
                    .into_iter()
                    .enumerate()
                    .map(|(i, (pref, entry, lan_us))| ProviderSpec {
                        lan_latency: SimDuration::from_micros(lan_us),
                        ..ProviderSpec::generic(i, pref, entry, forwarders.len())
                    })
                    .collect();
                Blueprint {
                    label: self.label(),
                    providers: specs,
                    forwarders,
                    ring_closer: None,
                }
            }
        }
    }
}

/// One provider router around the switch: its identity, its import
/// preference and its two links.
#[derive(Clone, Debug, PartialEq)]
pub struct ProviderSpec {
    /// LAN address: BGP next hop, session address and controller peer id.
    pub ip: Ipv4Addr,
    pub mac: MacAddr,
    pub asn: u16,
    pub router_id: Ipv4Addr,
    /// Import preference R1/the controller assigns to this provider's
    /// routes. The highest value is the primary.
    pub local_pref: u32,
    /// Latency of the provider's link to the switch.
    pub lan_latency: SimDuration,
    /// Where the provider's delivery edge leads.
    pub delivery: Delivery,
    /// Latency of the delivery edge.
    pub edge_latency: SimDuration,
}

/// The far end of a provider's delivery edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Delivery {
    /// The forwarder fabric, entering at this index into
    /// [`Blueprint::forwarders`].
    Forwarder(usize),
    /// The sink itself, over its own subnet: the provider holds `.1`
    /// with `mac`, the sink `.100`.
    Sink { subnet: Ipv4Prefix, mac: MacAddr },
}

impl ProviderSpec {
    /// Provider `i` on the generic addressing plan (see
    /// [`crate::builder`]): `10.0.0.(30+i)`, AS `65100+i`, router id =
    /// IP, and a 50 µs delivery edge into forwarder `entry` or, when
    /// `None`, to the sink over edge `fabric + i` (`fabric` = the
    /// blueprint's forwarder count; forwarder uplinks take the edges
    /// below it).
    fn generic(i: usize, local_pref: u32, entry: Option<usize>, fabric: usize) -> ProviderSpec {
        let k = fabric + i;
        ProviderSpec {
            ip: provider_ip(i),
            mac: provider_mac(i),
            asn: provider_asn(i),
            router_id: provider_ip(i),
            local_pref,
            lan_latency: SimDuration::from_micros(10),
            delivery: match entry {
                Some(e) => Delivery::Forwarder(e),
                None => Delivery::Sink {
                    subnet: edge_subnet(k),
                    mac: edge_mac(k, 1),
                },
            },
            edge_latency: SimDuration::from_micros(50),
        }
    }

    /// The forwarder this provider's delivery path enters, if any.
    pub fn entry(&self) -> Option<usize> {
        match self.delivery {
            Delivery::Forwarder(e) => Some(e),
            Delivery::Sink { .. } => None,
        }
    }
}

/// One forwarder (static-route relay) in the delivery fabric.
#[derive(Clone, Debug, PartialEq)]
pub struct ForwarderSpec {
    /// The next forwarder toward the sink; `None` means this forwarder
    /// holds the sink attachment.
    pub next: Option<usize>,
    /// Latency of this forwarder's uplink (toward `next` or the sink).
    pub latency: SimDuration,
}

/// The elaborated topology: what [`crate::builder`] wires into a world.
#[derive(Clone, Debug, PartialEq)]
pub struct Blueprint {
    pub label: String,
    /// Not necessarily preference-ordered (`Random` shuffles prefs) —
    /// use [`Blueprint::primary`]/[`Blueprint::rank_order`], never
    /// index 0, to find the primary.
    pub providers: Vec<ProviderSpec>,
    pub forwarders: Vec<ForwarderSpec>,
    /// An extra routeless link closing a ring, by forwarder indices.
    pub ring_closer: Option<(usize, usize)>,
}

impl Blueprint {
    /// The provider ranked `rank` by preference (0 = primary).
    pub fn rank_order(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.providers.len()).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(self.providers[i].local_pref));
        idx
    }

    /// Index of the primary (highest local-pref) provider.
    pub fn primary(&self) -> usize {
        self.rank_order()[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_stable() {
        let specs = [
            TopologySpec::Fig4Lab,
            TopologySpec::Chain {
                providers: 3,
                hops: 2,
            },
            TopologySpec::Ring {
                providers: 2,
                ring: 4,
            },
            TopologySpec::FatTreePod { k: 4 },
            TopologySpec::IxpHub { peers: 6 },
            TopologySpec::Random { seed: 7 },
        ];
        let labels: std::collections::HashSet<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), specs.len());
        assert_eq!(TopologySpec::FatTreePod { k: 4 }.label(), "fattree4");
    }

    #[test]
    fn chain_blueprint_has_private_chains() {
        let bp = TopologySpec::Chain {
            providers: 3,
            hops: 2,
        }
        .blueprint();
        assert_eq!(bp.providers.len(), 3);
        assert_eq!(bp.forwarders.len(), 6);
        // Each provider enters its own chain head.
        let entries: Vec<usize> = bp.providers.iter().map(|p| p.entry().unwrap()).collect();
        assert_eq!(entries, vec![0, 2, 4]);
        // Chains terminate at the sink.
        assert_eq!(bp.forwarders[1].next, None);
        assert_eq!(bp.forwarders[0].next, Some(1));
    }

    #[test]
    fn ring_blueprint_descends_to_sink_holder() {
        let bp = TopologySpec::Ring {
            providers: 2,
            ring: 4,
        }
        .blueprint();
        assert_eq!(bp.forwarders[0].next, None);
        assert_eq!(bp.forwarders[3].next, Some(2));
        assert_eq!(bp.ring_closer, Some((3, 0)));
        assert_eq!(bp.providers[0].entry(), Some(0));
        assert_eq!(bp.providers[1].entry(), Some(2));
    }

    #[test]
    fn fattree_pod_shares_aggregation() {
        let bp = TopologySpec::FatTreePod { k: 4 }.blueprint();
        assert_eq!(bp.providers.len(), 4);
        assert_eq!(bp.forwarders.len(), 3); // edge + 2 agg
        let entries: Vec<usize> = bp.providers.iter().map(|p| p.entry().unwrap()).collect();
        assert_eq!(entries, vec![1, 2, 1, 2]);
    }

    #[test]
    fn random_blueprint_is_deterministic() {
        let a = TopologySpec::Random { seed: 3 }.blueprint();
        let b = TopologySpec::Random { seed: 3 }.blueprint();
        assert_eq!(a, b);
        let c = TopologySpec::Random { seed: 4 }.blueprint();
        assert_ne!(a, c);
        assert!(a.providers.len() >= 2);
    }

    #[test]
    fn primary_is_highest_pref() {
        let bp = TopologySpec::Random { seed: 11 }.blueprint();
        let p = bp.primary();
        assert!(bp
            .providers
            .iter()
            .all(|s| s.local_pref <= bp.providers[p].local_pref));
    }
}
