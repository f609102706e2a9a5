//! ARP (RFC 826) for IPv4-over-Ethernet.
//!
//! ARP is the provisioning trick at the heart of the paper: the router
//! resolves each *virtual* next-hop IP with an ARP request, and the
//! supercharger's ARP responder answers with the backup-group's VMAC.
//! That single reply is what turns the router's flat FIB into the first
//! stage of a hierarchical FIB.

use super::{be16, need, WireError};
use crate::mac::MacAddr;
use std::net::Ipv4Addr;

/// Fixed size of an IPv4-over-Ethernet ARP packet.
pub const PACKET_LEN: usize = 28;

/// ARP operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArpOp {
    Request,
    Reply,
}

impl ArpOp {
    fn from_u16(v: u16) -> Result<ArpOp, WireError> {
        match v {
            1 => Ok(ArpOp::Request),
            2 => Ok(ArpOp::Reply),
            _ => Err(WireError::BadField("arp operation")),
        }
    }

    fn to_u16(self) -> u16 {
        match self {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        }
    }
}

/// Parsed ARP packet (IPv4 over Ethernet only).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArpRepr {
    pub op: ArpOp,
    pub sender_mac: MacAddr,
    pub sender_ip: Ipv4Addr,
    pub target_mac: MacAddr,
    pub target_ip: Ipv4Addr,
}

impl ArpRepr {
    /// Build the standard "who-has `target_ip`? tell `sender`" request.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> ArpRepr {
        ArpRepr {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Build the reply to `request`, announcing `our_mac` for the
    /// requested IP.
    pub fn reply_to(request: &ArpRepr, our_mac: MacAddr) -> ArpRepr {
        ArpRepr {
            op: ArpOp::Reply,
            sender_mac: our_mac,
            sender_ip: request.target_ip,
            target_mac: request.sender_mac,
            target_ip: request.sender_ip,
        }
    }

    /// Parse an ARP packet. Only Ethernet/IPv4 (htype 1, ptype 0x0800,
    /// hlen 6, plen 4) is supported; anything else is `Unsupported`.
    pub fn parse(buf: &[u8]) -> Result<ArpRepr, WireError> {
        need(buf, PACKET_LEN)?;
        if be16(buf, 0) != 1 {
            return Err(WireError::Unsupported("arp hardware type"));
        }
        if be16(buf, 2) != 0x0800 {
            return Err(WireError::Unsupported("arp protocol type"));
        }
        if buf[4] != 6 || buf[5] != 4 {
            return Err(WireError::Unsupported("arp address lengths"));
        }
        let op = ArpOp::from_u16(be16(buf, 6))?;
        Ok(ArpRepr {
            op,
            sender_mac: MacAddr::from_bytes(&buf[8..14]).unwrap(),
            sender_ip: Ipv4Addr::new(buf[14], buf[15], buf[16], buf[17]),
            target_mac: MacAddr::from_bytes(&buf[18..24]).unwrap(),
            target_ip: Ipv4Addr::new(buf[24], buf[25], buf[26], buf[27]),
        })
    }

    /// Serialize to the 28-byte wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = vec![0u8; PACKET_LEN];
        buf[0..2].copy_from_slice(&1u16.to_be_bytes()); // htype: Ethernet
        buf[2..4].copy_from_slice(&0x0800u16.to_be_bytes()); // ptype: IPv4
        buf[4] = 6;
        buf[5] = 4;
        buf[6..8].copy_from_slice(&self.op.to_u16().to_be_bytes());
        buf[8..14].copy_from_slice(&self.sender_mac.octets());
        buf[14..18].copy_from_slice(&self.sender_ip.octets());
        buf[18..24].copy_from_slice(&self.target_mac.octets());
        buf[24..28].copy_from_slice(&self.target_ip.octets());
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_reply_roundtrip() {
        let req = ArpRepr::request(
            MacAddr::from_octets([0, 1, 2, 3, 4, 5]),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 200, 0, 1), // a VNH
        );
        let bytes = req.to_bytes();
        assert_eq!(bytes.len(), PACKET_LEN);
        let parsed = ArpRepr::parse(&bytes).unwrap();
        assert_eq!(parsed, req);

        let vmac = MacAddr::virtual_mac(3);
        let rep = ArpRepr::reply_to(&parsed, vmac);
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sender_mac, vmac);
        assert_eq!(rep.sender_ip, req.target_ip);
        assert_eq!(rep.target_mac, req.sender_mac);
        assert_eq!(rep.target_ip, req.sender_ip);
        let rep2 = ArpRepr::parse(&rep.to_bytes()).unwrap();
        assert_eq!(rep2, rep);
    }

    #[test]
    fn rejects_non_ethernet_ipv4() {
        let mut b = ArpRepr::request(MacAddr::ZERO, Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED)
            .to_bytes();
        b[1] = 6; // htype = IEEE 802
        assert_eq!(
            ArpRepr::parse(&b),
            Err(WireError::Unsupported("arp hardware type"))
        );

        let mut b2 = ArpRepr::request(MacAddr::ZERO, Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED)
            .to_bytes();
        b2[3] = 0xdd; // ptype junk
        assert!(ArpRepr::parse(&b2).is_err());

        let mut b3 = ArpRepr::request(MacAddr::ZERO, Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED)
            .to_bytes();
        b3[7] = 9; // bad op
        assert_eq!(
            ArpRepr::parse(&b3),
            Err(WireError::BadField("arp operation"))
        );
    }

    #[test]
    fn truncated_rejected() {
        let b = ArpRepr::request(MacAddr::ZERO, Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED)
            .to_bytes();
        for cut in [0, 1, 8, 27] {
            assert!(ArpRepr::parse(&b[..cut]).is_err(), "cut={cut}");
        }
    }
}
