//! Match structures, actions, and the extracted packet key.

use sc_net::wire::{EtherType, EthernetRepr, Ipv4Repr, UdpRepr};
use sc_net::{Ipv4Prefix, MacAddr};
use std::fmt;
use std::net::Ipv4Addr;

/// The fields the pipeline extracts from a frame once, then matches
/// against (a software TCAM key).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowKey {
    pub in_port: u16,
    pub eth_src: MacAddr,
    pub eth_dst: MacAddr,
    pub eth_type: u16,
    /// L3/L4 fields when the frame is IPv4 (+UDP).
    pub ip_src: Option<Ipv4Addr>,
    pub ip_dst: Option<Ipv4Addr>,
    pub udp_src: Option<u16>,
    pub udp_dst: Option<u16>,
}

impl FlowKey {
    /// Extract a key from an encoded frame arriving on `in_port`.
    /// Unparseable inner layers simply leave the optional fields unset —
    /// a switch must forward frames it cannot fully parse.
    #[inline]
    pub fn extract(in_port: u16, frame: &[u8]) -> Option<FlowKey> {
        let (eth, payload) = EthernetRepr::parse(frame).ok()?;
        let mut key = FlowKey {
            in_port,
            eth_src: eth.src,
            eth_dst: eth.dst,
            eth_type: eth.ethertype.to_u16(),
            ip_src: None,
            ip_dst: None,
            udp_src: None,
            udp_dst: None,
        };
        if eth.ethertype == EtherType::Ipv4 {
            if let Ok((ip, ip_payload)) = Ipv4Repr::parse(payload) {
                key.ip_src = Some(ip.src);
                key.ip_dst = Some(ip.dst);
                if ip.protocol == sc_net::wire::ipv4::protocol::UDP {
                    if let Ok((udp, _)) = UdpRepr::parse(ip.src, ip.dst, ip_payload) {
                        key.udp_src = Some(udp.src_port);
                        key.udp_dst = Some(udp.dst_port);
                    }
                }
            }
        }
        Some(key)
    }
}

/// A flow match: every field is optional (wildcard when `None`); IPv4
/// addresses match by prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct FlowMatch {
    pub in_port: Option<u16>,
    pub eth_src: Option<MacAddr>,
    pub eth_dst: Option<MacAddr>,
    pub eth_type: Option<u16>,
    pub ip_src: Option<Ipv4Prefix>,
    pub ip_dst: Option<Ipv4Prefix>,
    pub udp_src: Option<u16>,
    pub udp_dst: Option<u16>,
}

impl FlowMatch {
    /// Match everything (the table-miss / default entry).
    pub fn any() -> FlowMatch {
        FlowMatch::default()
    }

    /// The supercharger's canonical match: destination MAC equals a VMAC.
    pub fn dst_mac(mac: MacAddr) -> FlowMatch {
        FlowMatch {
            eth_dst: Some(mac),
            ..FlowMatch::default()
        }
    }

    /// Does `key` satisfy this match?
    pub fn matches(&self, key: &FlowKey) -> bool {
        if let Some(p) = self.in_port {
            if key.in_port != p {
                return false;
            }
        }
        if let Some(m) = self.eth_src {
            if key.eth_src != m {
                return false;
            }
        }
        if let Some(m) = self.eth_dst {
            if key.eth_dst != m {
                return false;
            }
        }
        if let Some(t) = self.eth_type {
            if key.eth_type != t {
                return false;
            }
        }
        if let Some(pref) = self.ip_src {
            match key.ip_src {
                Some(ip) if pref.contains(ip) => {}
                _ => return false,
            }
        }
        if let Some(pref) = self.ip_dst {
            match key.ip_dst {
                Some(ip) if pref.contains(ip) => {}
                _ => return false,
            }
        }
        if let Some(p) = self.udp_src {
            if key.udp_src != Some(p) {
                return false;
            }
        }
        if let Some(p) = self.udp_dst {
            if key.udp_dst != Some(p) {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for FlowMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if let Some(p) = self.in_port {
            parts.push(format!("in_port={p}"));
        }
        if let Some(m) = self.eth_src {
            parts.push(format!("eth_src={m}"));
        }
        if let Some(m) = self.eth_dst {
            parts.push(format!("eth_dst={m}"));
        }
        if let Some(t) = self.eth_type {
            parts.push(format!("eth_type=0x{t:04x}"));
        }
        if let Some(p) = self.ip_src {
            parts.push(format!("ip_src={p}"));
        }
        if let Some(p) = self.ip_dst {
            parts.push(format!("ip_dst={p}"));
        }
        if let Some(p) = self.udp_src {
            parts.push(format!("udp_src={p}"));
        }
        if let Some(p) = self.udp_dst {
            parts.push(format!("udp_dst={p}"));
        }
        if parts.is_empty() {
            write!(f, "match(*)")
        } else {
            write!(f, "match({})", parts.join(","))
        }
    }
}

/// Actions executed in order on a matched frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Rewrite the destination MAC (the paper's
    /// `modify(dst_mac=get_mac(backup_nh))`).
    SetDstMac(MacAddr),
    /// Rewrite the source MAC.
    SetSrcMac(MacAddr),
    /// Forward out a specific port.
    Output(u16),
    /// Forward out every port except the ingress (and the controller
    /// channel).
    Flood,
    /// Punt the frame to the controller as a PACKET_IN.
    ToController,
    /// Drop explicitly.
    Drop,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::SetDstMac(m) => write!(f, "set_dst_mac({m})"),
            Action::SetSrcMac(m) => write!(f, "set_src_mac({m})"),
            Action::Output(p) => write!(f, "output({p})"),
            Action::Flood => write!(f, "flood"),
            Action::ToController => write!(f, "controller"),
            Action::Drop => write!(f, "drop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_net::wire::{udp_frame, UdpEndpoints};

    fn sample_frame() -> Vec<u8> {
        udp_frame(
            UdpEndpoints {
                src_mac: MacAddr::from_octets([0, 0, 0, 0, 0, 0xaa]),
                dst_mac: MacAddr::virtual_mac(3),
                src_ip: Ipv4Addr::new(192, 0, 2, 1),
                dst_ip: Ipv4Addr::new(1, 0, 0, 1),
                src_port: 49152,
                dst_port: 7,
            },
            64,
            b"probe",
        )
    }

    #[test]
    fn key_extraction() {
        let key = FlowKey::extract(4, &sample_frame()).unwrap();
        assert_eq!(key.in_port, 4);
        assert_eq!(key.eth_dst, MacAddr::virtual_mac(3));
        assert_eq!(key.eth_type, 0x0800);
        assert_eq!(key.ip_dst, Some(Ipv4Addr::new(1, 0, 0, 1)));
        assert_eq!(key.udp_dst, Some(7));
    }

    #[test]
    fn key_extraction_non_ip() {
        let eth = EthernetRepr {
            dst: MacAddr::BROADCAST,
            src: MacAddr::from_octets([0, 0, 0, 0, 0, 1]),
            ethertype: EtherType::Arp,
        };
        let key = FlowKey::extract(0, &eth.to_frame(&[0u8; 28])).unwrap();
        assert_eq!(key.eth_type, 0x0806);
        assert_eq!(key.ip_dst, None);
        assert_eq!(key.udp_dst, None);
        assert!(FlowKey::extract(0, &[1, 2, 3]).is_none());
    }

    #[test]
    fn wildcard_matches_everything() {
        let key = FlowKey::extract(1, &sample_frame()).unwrap();
        assert!(FlowMatch::any().matches(&key));
    }

    #[test]
    fn dst_mac_match_is_selective() {
        let key = FlowKey::extract(1, &sample_frame()).unwrap();
        assert!(FlowMatch::dst_mac(MacAddr::virtual_mac(3)).matches(&key));
        assert!(!FlowMatch::dst_mac(MacAddr::virtual_mac(4)).matches(&key));
    }

    #[test]
    fn prefix_matching_on_l3() {
        let key = FlowKey::extract(1, &sample_frame()).unwrap();
        let m = FlowMatch {
            ip_dst: Some("1.0.0.0/8".parse().unwrap()),
            ..FlowMatch::default()
        };
        assert!(m.matches(&key));
        let m2 = FlowMatch {
            ip_dst: Some("2.0.0.0/8".parse().unwrap()),
            ..FlowMatch::default()
        };
        assert!(!m2.matches(&key));
        // An L3 match never matches a non-IP frame.
        let arp_key = FlowKey {
            ip_src: None,
            ip_dst: None,
            udp_src: None,
            udp_dst: None,
            eth_type: 0x0806,
            ..key
        };
        assert!(!m.matches(&arp_key));
    }

    #[test]
    fn combined_fields_all_required() {
        let key = FlowKey::extract(2, &sample_frame()).unwrap();
        let m = FlowMatch {
            in_port: Some(2),
            eth_type: Some(0x0800),
            udp_dst: Some(7),
            ..FlowMatch::default()
        };
        assert!(m.matches(&key));
        let wrong_port = FlowMatch {
            in_port: Some(3),
            ..m
        };
        assert!(!wrong_port.matches(&key));
    }

    #[test]
    fn display_renders() {
        let m = FlowMatch::dst_mac(MacAddr::virtual_mac(0));
        assert!(m.to_string().contains("eth_dst=02:5c"));
        assert_eq!(FlowMatch::any().to_string(), "match(*)");
        assert_eq!(Action::Output(3).to_string(), "output(3)");
    }
}
