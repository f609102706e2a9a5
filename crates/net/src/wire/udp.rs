//! UDP (RFC 768).
//!
//! Carries the measurement traffic (64-byte probe packets, as generated
//! by the paper's FPGA source), BFD control packets (RFC 5881 port 3784),
//! and the reliable-transport segments of BGP and OpenFlow sessions.

use super::{be16, need, put16, WireError};
use crate::checksum;
use std::net::Ipv4Addr;

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// Well-known ports used inside the simulation.
pub mod port {
    /// BFD single-hop control (RFC 5881).
    pub const BFD_CONTROL: u16 = 3784;
    /// BGP sessions (over the reliable channel).
    pub const BGP: u16 = 179;
    /// OpenFlow control channel (over the reliable channel).
    pub const OPENFLOW: u16 = 6653;
    /// Measurement traffic destination port.
    pub const PROBE: u16 = 7;
}

/// Parsed UDP header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UdpRepr {
    pub src_port: u16,
    pub dst_port: u16,
}

impl UdpRepr {
    /// Parse a UDP segment, verifying length and (if non-zero) checksum
    /// against the IPv4 pseudo-header. Returns header and payload.
    #[inline]
    pub fn parse(src: Ipv4Addr, dst: Ipv4Addr, buf: &[u8]) -> Result<(UdpRepr, &[u8]), WireError> {
        need(buf, HEADER_LEN)?;
        let len = be16(buf, 4) as usize;
        if len < HEADER_LEN || len > buf.len() {
            return Err(WireError::BadLength);
        }
        let cksum = be16(buf, 6);
        if cksum != 0 && checksum::udp_checksum_raw(src, dst, &buf[..len]) != 0xffff {
            return Err(WireError::BadChecksum("udp"));
        }
        Ok((
            UdpRepr {
                src_port: be16(buf, 0),
                dst_port: be16(buf, 2),
            },
            &buf[HEADER_LEN..len],
        ))
    }

    /// Write the header into the first [`HEADER_LEN`] bytes of
    /// `segment`, whose remaining bytes already hold the payload, with
    /// the checksum computed over the IPv4 pseudo-header.
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr, segment: &mut [u8]) {
        let len = segment.len();
        assert!(len <= u16::MAX as usize, "udp segment too large");
        put16(segment, 0, self.src_port);
        put16(segment, 2, self.dst_port);
        put16(segment, 4, len as u16);
        put16(segment, 6, 0);
        let c = checksum::udp_checksum(src, dst, segment);
        put16(segment, 6, c);
    }

    /// Serialize header + payload with checksum computed over the IPv4
    /// pseudo-header.
    pub fn to_segment(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        buf[HEADER_LEN..].copy_from_slice(payload);
        self.emit(src, dst, &mut buf);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn roundtrip() {
        let repr = UdpRepr {
            src_port: 49152,
            dst_port: port::PROBE,
        };
        let seg = repr.to_segment(SRC, DST, b"probe-payload");
        let (parsed, payload) = UdpRepr::parse(SRC, DST, &seg).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(payload, b"probe-payload");
    }

    #[test]
    fn checksum_detects_corruption() {
        let repr = UdpRepr {
            src_port: 1,
            dst_port: 2,
        };
        let mut seg = repr.to_segment(SRC, DST, b"abcd");
        seg[9] ^= 0x40;
        assert_eq!(
            UdpRepr::parse(SRC, DST, &seg),
            Err(WireError::BadChecksum("udp"))
        );
        // Wrong pseudo-header (spoofed src) also fails.
        let seg2 = repr.to_segment(SRC, DST, b"abcd");
        assert!(UdpRepr::parse(Ipv4Addr::new(9, 9, 9, 9), DST, &seg2).is_err());
    }

    #[test]
    fn zero_checksum_skips_validation() {
        let repr = UdpRepr {
            src_port: 5,
            dst_port: 6,
        };
        let mut seg = repr.to_segment(SRC, DST, b"x");
        seg[6] = 0;
        seg[7] = 0;
        let (parsed, payload) = UdpRepr::parse(SRC, DST, &seg).unwrap();
        assert_eq!(parsed.src_port, 5);
        assert_eq!(payload, b"x");
    }

    #[test]
    fn length_field_respected() {
        let repr = UdpRepr {
            src_port: 1,
            dst_port: 2,
        };
        let seg = repr.to_segment(SRC, DST, b"abcdef");
        assert!(UdpRepr::parse(SRC, DST, &seg[..seg.len() - 1]).is_err());
        assert!(UdpRepr::parse(SRC, DST, &seg[..4]).is_err());
    }
}
