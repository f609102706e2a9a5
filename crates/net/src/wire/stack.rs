//! Convenience encap/decap for the Ethernet/IPv4/UDP stack.
//!
//! Every control-plane node (router, controller, BFD agent) exchanges UDP
//! datagrams; these helpers build and open the full frame in one call so
//! the per-node code stays focused on its protocol logic.

use super::ethernet::{self, EtherType, EthernetRepr};
use super::ipv4::{self, protocol, Ipv4Repr};
use super::udp::{self, UdpRepr};
use super::WireError;
use crate::frame::Frame;
use crate::mac::MacAddr;
use std::net::Ipv4Addr;

/// Addressing for one UDP endpoint pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpEndpoints {
    pub src_mac: MacAddr,
    pub dst_mac: MacAddr,
    pub src_ip: Ipv4Addr,
    pub dst_ip: Ipv4Addr,
    pub src_port: u16,
    pub dst_port: u16,
}

impl UdpEndpoints {
    /// The reverse direction (for replies).
    pub fn flipped(self) -> UdpEndpoints {
        UdpEndpoints {
            src_mac: self.dst_mac,
            dst_mac: self.src_mac,
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }
}

/// A decapsulated UDP datagram: the three parsed header layers plus
/// the payload, borrowed from the frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpDatagram<'a> {
    pub eth: EthernetRepr,
    pub ip: Ipv4Repr,
    pub udp: UdpRepr,
    pub payload: &'a [u8],
}

/// Bytes of Ethernet + IPv4 + UDP header in front of the payload.
const HEADERS_LEN: usize = ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN;

/// Encode an Ethernet/IPv4/UDP frame into the empty `buf`: `payload`
/// appends the UDP payload behind reserved header space and the three
/// headers are then written in front of it, so the payload is copied
/// (or encoded) exactly once.
fn encap(buf: &mut Vec<u8>, ep: UdpEndpoints, ttl: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    buf.resize(HEADERS_LEN, 0);
    payload(buf);
    EthernetRepr {
        dst: ep.dst_mac,
        src: ep.src_mac,
        ethertype: EtherType::Ipv4,
    }
    .emit(buf);
    let packet = &mut buf[ethernet::HEADER_LEN..];
    let segment_len = packet.len() - ipv4::HEADER_LEN;
    Ipv4Repr {
        src: ep.src_ip,
        dst: ep.dst_ip,
        protocol: protocol::UDP,
        ttl,
        tos: 0,
        ident: 0,
    }
    .emit(packet, segment_len);
    UdpRepr {
        src_port: ep.src_port,
        dst_port: ep.dst_port,
    }
    .emit(ep.src_ip, ep.dst_ip, &mut packet[ipv4::HEADER_LEN..]);
}

/// Build an Ethernet/IPv4/UDP frame around `payload`.
pub fn udp_frame(ep: UdpEndpoints, ttl: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADERS_LEN + payload.len());
    encap(&mut buf, ep, ttl, |b| b.extend_from_slice(payload));
    buf
}

/// [`udp_frame`] into a recycled [`Frame`] buffer, the payload written
/// in place by `payload` (which appends to the buffer it is handed).
pub fn udp_frame_with(ep: UdpEndpoints, ttl: u8, payload: impl FnOnce(&mut Vec<u8>)) -> Frame {
    Frame::build(|buf| encap(buf, ep, ttl, payload))
}

/// Parse the Ethernet/IPv4/UDP layers of a frame, validating all of
/// them, without copying the payload. Returns `Ok(None)` if the frame is
/// well-formed but *not* UDP-over-IPv4 (e.g. ARP), so callers can fall
/// through to other handlers.
#[inline]
pub fn peek_udp_frame(frame: &[u8]) -> Result<Option<UdpDatagram<'_>>, WireError> {
    let (eth, eth_payload) = EthernetRepr::parse(frame)?;
    if eth.ethertype != EtherType::Ipv4 {
        return Ok(None);
    }
    let (ip, ip_payload) = Ipv4Repr::parse(eth_payload)?;
    if ip.protocol != protocol::UDP {
        return Ok(None);
    }
    let (udp, payload) = UdpRepr::parse(ip.src, ip.dst, ip_payload)?;
    Ok(Some(UdpDatagram {
        eth,
        ip,
        udp,
        payload,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoints() -> UdpEndpoints {
        UdpEndpoints {
            src_mac: MacAddr::from_octets([0, 0, 0, 0, 0, 1]),
            dst_mac: MacAddr::from_octets([0, 0, 0, 0, 0, 2]),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 179,
            dst_port: 40000,
        }
    }

    #[test]
    fn roundtrip() {
        let ep = endpoints();
        let frame = udp_frame(ep, 64, b"bgp-update-bytes");
        let d = peek_udp_frame(&frame).unwrap().unwrap();
        assert_eq!(d.payload, b"bgp-update-bytes");
        assert_eq!(d.udp.src_port, 179);
        assert_eq!(d.udp.dst_port, 40000);
        assert_eq!(d.ip.src, ep.src_ip);
        assert_eq!(d.eth.dst, ep.dst_mac);
    }

    #[test]
    fn one_copy_encap_matches_the_layered_encoders() {
        let ep = endpoints();
        for payload in [&b""[..], b"x", b"bgp-update-bytes"] {
            let segment = UdpRepr {
                src_port: ep.src_port,
                dst_port: ep.dst_port,
            }
            .to_segment(ep.src_ip, ep.dst_ip, payload);
            let packet = Ipv4Repr {
                src: ep.src_ip,
                dst: ep.dst_ip,
                protocol: protocol::UDP,
                ttl: 64,
                tos: 0,
                ident: 0,
            }
            .to_packet(&segment);
            let layered = EthernetRepr {
                dst: ep.dst_mac,
                src: ep.src_mac,
                ethertype: EtherType::Ipv4,
            }
            .to_frame(&packet);
            assert_eq!(udp_frame(ep, 64, payload), layered);
            let pooled = udp_frame_with(ep, 64, |b| b.extend_from_slice(payload));
            assert_eq!(&*pooled, layered.as_slice());
        }
    }

    #[test]
    fn flipped_reverses_everything() {
        let ep = endpoints();
        let f = ep.flipped();
        assert_eq!(f.src_mac, ep.dst_mac);
        assert_eq!(f.dst_ip, ep.src_ip);
        assert_eq!(f.src_port, ep.dst_port);
        assert_eq!(f.flipped(), ep);
    }

    #[test]
    fn non_udp_passes_through_as_none() {
        // An ARP frame is not an error, just "not ours".
        let arp = crate::wire::arp::ArpRepr::request(
            MacAddr::from_octets([0, 0, 0, 0, 0, 1]),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let frame = EthernetRepr {
            dst: MacAddr::BROADCAST,
            src: MacAddr::from_octets([0, 0, 0, 0, 0, 1]),
            ethertype: EtherType::Arp,
        }
        .to_frame(&arp.to_bytes());
        assert_eq!(peek_udp_frame(&frame).unwrap(), None);
    }

    #[test]
    fn corrupted_frame_is_an_error() {
        let mut frame = udp_frame(endpoints(), 64, b"data");
        let n = frame.len();
        frame[n - 1] ^= 0xff; // flip payload byte -> UDP checksum fails
        assert!(peek_udp_frame(&frame).is_err());
    }
}
