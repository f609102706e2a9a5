//! Parametric topology generators.
//!
//! Every generated topology keeps the paper's invariant — the SDN
//! switch sits between the supercharged router R1 and its BGP peers —
//! and varies what the scenario engine can vary without running BGP
//! beyond the providers: peer count and delivery-path depth.
//!
//! A [`TopologySpec`] elaborates into a [`Blueprint`]: the star of
//! provider routers around the switch, plus each provider's delivery
//! path to the measurement sink, straight or through a private chain of
//! *forwarder* routers (plain IP routers with static routes,
//! `Calibration::instant`, no BGP). The Fig. 4 lab is the degenerate
//! two-provider, zero-forwarder case, numbered with the lab's own
//! addresses ([`sc_lab::topology`]); the IXP hub is the paper's §5 case.
//! A blueprint carries every provider's identity and links, so
//! [`crate::builder`] wires all of them the same way.
//!
//! A forwarder fabric only relays: it adds latency, not BGP propagation
//! across ASes, which is where the related work locates topology
//! dependence (Gämperli et al., arXiv:1611.03113; Sermpezis &
//! Dimitropoulos, arXiv:1702.00188). So there is one fabric shape, the
//! private chain: a ring, fat-tree pod or random graph of relays would
//! change a cell's latency by well under a millisecond and measure
//! nothing a chain does not.

use crate::builder::{edge_mac, edge_subnet, provider_asn, provider_ip, provider_mac};
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
    /// An IXP-style hub (the paper's §5 "boosting an IXP"): `peers`
    /// participant routers fan directly out of the switch, each a
    /// one-hop path to the sink.
    IxpHub { peers: usize },
}

impl TopologySpec {
    /// A short, filesystem/CSV-safe label.
    pub fn label(&self) -> String {
        match self {
            TopologySpec::Fig4Lab => "fig4".to_string(),
            TopologySpec::Chain { providers, hops } => format!("chain{providers}x{hops}"),
            TopologySpec::IxpHub { peers } => format!("ixp{peers}"),
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
                        mac: MacAddr::from_octets([0x02, 0x20, 0, 0, 0, id]),
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
///
/// Invariant: `providers` is in strictly descending `local_pref`, so
/// provider 0 is the primary and index `n` is the provider ranked `n`
/// (Fig. 4: 200, 100; every generic family: 200 − 10i).
#[derive(Clone, Debug, PartialEq)]
pub struct Blueprint {
    pub label: String,
    pub providers: Vec<ProviderSpec>,
    pub forwarders: Vec<ForwarderSpec>,
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
            TopologySpec::IxpHub { peers: 6 },
        ];
        let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["fig4", "chain3x2", "ixp6"]);
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

    /// The [`Blueprint`] invariant every family keeps: providers in
    /// strictly descending preference, so index 0 is the primary.
    #[test]
    fn primary_is_highest_pref() {
        for spec in [
            TopologySpec::Fig4Lab,
            TopologySpec::Chain {
                providers: 3,
                hops: 2,
            },
            TopologySpec::Chain {
                providers: 16,
                hops: 0,
            },
            TopologySpec::IxpHub { peers: 2 },
            TopologySpec::IxpHub { peers: 16 },
        ] {
            let prefs: Vec<u32> = spec
                .blueprint()
                .providers
                .iter()
                .map(|p| p.local_pref)
                .collect();
            assert!(
                prefs.windows(2).all(|w| w[0] > w[1]),
                "{}: {prefs:?}",
                spec.label()
            );
        }
    }
}
